package service

import (
	"reflect"
	"testing"

	"panorama/internal/core"
)

// fullEntry exercises every Summary field the codec carries, including
// the optional ones JSON would omit.
func fullEntry() Entry {
	return Entry{
		Fingerprint: "pan1:abcdef0123456789",
		Summary: core.Summary{
			Kernel:     "conv2d",
			Success:    true,
			MII:        3,
			II:         4,
			QoM:        0.75,
			Guidance:   "guided",
			Candidates: 5,
			PartitionK: 4,
			Stages: []core.StageRecord{
				{Stage: "clustering"},
				{Stage: "clustermap", Note: "ilp"},
				{Stage: "lower", Note: "guided aborted"},
			},
			BudgetStage: "lower",
		},
	}
}

func TestEntryCodecRoundTrip(t *testing.T) {
	for name, e := range map[string]Entry{
		"full":    fullEntry(),
		"minimal": {Fingerprint: "pan1:00", Summary: core.Summary{Kernel: "fir", MII: 2, Guidance: "fallback"}},
		"empty":   {},
	} {
		data, err := e.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		var back Entry
		if err := back.UnmarshalBinary(data); err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		if !reflect.DeepEqual(e, back) {
			t.Fatalf("%s: round trip changed the entry:\n got %+v\nwant %+v", name, back, e)
		}
	}
}

// Every strict prefix of a valid encoding must fail to decode (and
// must not panic): the codec detects truncation anywhere.
func TestEntryCodecRejectsTruncation(t *testing.T) {
	e := fullEntry()
	data, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n++ {
		var back Entry
		if err := back.UnmarshalBinary(data[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded without error", n, len(data))
		}
	}
	// Trailing garbage must be rejected too.
	var back Entry
	if err := back.UnmarshalBinary(append(append([]byte{}, data...), 0)); err == nil {
		t.Fatal("trailing byte decoded without error")
	}
}

func TestEntryCodecRejectsBadHeader(t *testing.T) {
	e := fullEntry()
	data, _ := e.MarshalBinary()
	bad := append([]byte{}, data...)
	bad[0] = 'X'
	var back Entry
	if err := back.UnmarshalBinary(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	bad = append([]byte{}, data...)
	bad[4] = 99
	if err := back.UnmarshalBinary(bad); err == nil {
		t.Fatal("unknown version accepted")
	}
}

// A decode failure must not leave partial state behind in the
// receiver.
func TestEntryCodecFailureLeavesReceiverUntouched(t *testing.T) {
	back := fullEntry()
	if err := back.UnmarshalBinary([]byte("PCEN\x02bogus")); err == nil {
		t.Fatal("bogus payload accepted")
	}
	if !reflect.DeepEqual(back, fullEntry()) {
		t.Fatal("failed decode mutated the receiver")
	}
}
