package core

// Summary is the serializable view of a Result: everything a caller on
// the other side of a wire (the panoramad service, the persistent
// cache, a benchmark harness row) needs to report a mapping, without
// the in-memory partition/CDG/cluster-mapping structures. It is the
// service's result wire format and the value stored in the
// content-addressed cache, so its JSON tags are stable. It holds no
// wall time: a cache entry is a pure function of its key, so the same
// request summarizes to the same bytes on any run and any peer. Timing
// stays on the Result (ClusteringTime, ..., Provenance) and in the
// pipeline's own metrics.
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

	// Provenance: what each stage did (Wall zeroed), and — when a
	// budget ended the run — which stage exhausted it.
	Stages      []StageRecord `json:"stages,omitempty"`
	BudgetStage string        `json:"budgetStage,omitempty"`
}

// Summarize flattens the Result into its serializable Summary. The
// stage records are copied with Wall zeroed; the Result's own
// Provenance keeps its times.
func (r *Result) Summarize() Summary {
	s := Summary{
		Kernel:      r.Kernel,
		Success:     r.Lower.Success,
		MII:         r.Lower.MII,
		II:          r.Lower.II,
		QoM:         r.Lower.QoM,
		Guidance:    r.GuidanceLabel(),
		Candidates:  r.Candidates,
		BudgetStage: r.Provenance.BudgetStage,
	}
	if n := len(r.Provenance.Stages); n > 0 {
		s.Stages = make([]StageRecord, n)
		for i, rec := range r.Provenance.Stages {
			s.Stages[i] = StageRecord{Stage: rec.Stage, Note: rec.Note}
		}
	}
	if r.Partition != nil {
		s.PartitionK = r.Partition.K
	}
	return s
}
