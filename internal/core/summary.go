package core

import "time"

// Summary is the serializable view of a Result: everything a caller on
// the other side of a wire (the panoramad service, the persistent
// cache, a benchmark harness row) needs to report a mapping, without
// the in-memory partition/CDG/cluster-mapping structures. It is the
// service's result wire format and the value stored in the
// content-addressed cache, so its JSON tags are stable.
type Summary struct {
	Kernel string `json:"kernel"`

	// Lower-level mapping outcome.
	Success bool    `json:"success"`
	MII     int     `json:"mii"`
	II      int     `json:"ii,omitempty"`
	QoM     float64 `json:"qom,omitempty"`

	// Guidance reports how much of the cluster restriction survived:
	// "guided", "relaxed" or "fallback" (GuidanceLabel).
	Guidance string `json:"guidance"`
	// Candidates is how many partitions entered cluster mapping (0 for
	// baseline runs).
	Candidates int `json:"candidates,omitempty"`
	// PartitionK is the chosen clustering's cluster count (0 when the
	// run never produced a partition).
	PartitionK int `json:"partitionK,omitempty"`

	// Per-stage and total wall times, milliseconds.
	ClusteringMS float64 `json:"clusteringMS"`
	ClusterMapMS float64 `json:"clusterMapMS"`
	LowerMS      float64 `json:"lowerMS"`
	TotalMS      float64 `json:"totalMS"`

	// Provenance: what each stage did, and — when a budget ended the
	// run — which stage exhausted it.
	Stages      []StageRecord `json:"stages,omitempty"`
	BudgetStage string        `json:"budgetStage,omitempty"`
}

// Summarize flattens the Result into its serializable Summary.
func (r *Result) Summarize() Summary {
	s := Summary{
		Kernel:       r.Kernel,
		Success:      r.Lower.Success,
		MII:          r.Lower.MII,
		II:           r.Lower.II,
		QoM:          r.Lower.QoM,
		Guidance:     r.GuidanceLabel(),
		Candidates:   r.Candidates,
		ClusteringMS: ms(r.ClusteringTime),
		ClusterMapMS: ms(r.ClusterMapTime),
		LowerMS:      ms(r.LowerTime),
		TotalMS:      ms(r.TotalTime()),
		Stages:       r.Provenance.Stages,
		BudgetStage:  r.Provenance.BudgetStage,
	}
	if r.Partition != nil {
		s.PartitionK = r.Partition.K
	}
	return s
}

// Relaxed reports the "relaxed" guidance rung (memory ops freed, rest
// of the guidance kept); FellBack reports the unguided fallback. They
// mirror Result.Relaxed / Result.FellBack on the wire form.
func (s Summary) Relaxed() bool { return s.Guidance == "relaxed" }

// FellBack reports the unguided fallback rung; see Relaxed.
func (s Summary) FellBack() bool { return s.Guidance == "fallback" }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
