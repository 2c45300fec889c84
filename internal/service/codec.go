package service

import (
	"encoding/binary"

	"panorama/internal/core"
	"panorama/internal/wire"
)

// Binary codec for cache entries: the persisted form of one mapping
// result under the content-addressed cache directory. The layout
// (version 2) is
//
//	magic "PCEN", version byte
//	fingerprint: uvarint length, raw bytes
//	summary, fields in declaration order:
//	  Kernel string, Success byte, MII/II/Candidates/PartitionK as
//	  zigzag varints, QoM as little-endian IEEE-754 bits, Guidance and
//	  BudgetStage strings, then uvarint stage count and per stage
//	  (Stage string, Note string)
//
// Strings are uvarint length + raw bytes throughout. The entry holds
// no wall time, so it is a pure function of its fingerprint; a v1 file
// (which did) fails the header check, is skipped at load and is
// recomputed on its first miss. The entry's cache identity is the
// fingerprint alone — the codec only changes how the bytes at that
// address are spelled, never the address.
const (
	entryMagic   = "PCEN"
	entryVersion = 2
)

// MarshalBinary encodes the entry in the versioned varint wire format.
func (e *Entry) MarshalBinary() ([]byte, error) {
	s := &e.Summary
	buf := make([]byte, 0, 64+len(e.Fingerprint)+len(s.Kernel)+16*len(s.Stages))
	buf = append(buf, entryMagic...)
	buf = append(buf, entryVersion)
	buf = wire.AppendString(buf, e.Fingerprint)

	buf = wire.AppendString(buf, s.Kernel)
	if s.Success {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendVarint(buf, int64(s.MII))
	buf = binary.AppendVarint(buf, int64(s.II))
	buf = binary.AppendVarint(buf, int64(s.Candidates))
	buf = binary.AppendVarint(buf, int64(s.PartitionK))
	buf = wire.AppendFloat(buf, s.QoM)
	buf = wire.AppendString(buf, s.Guidance)
	buf = wire.AppendString(buf, s.BudgetStage)
	buf = binary.AppendUvarint(buf, uint64(len(s.Stages)))
	for _, st := range s.Stages {
		buf = wire.AppendString(buf, st.Stage)
		buf = wire.AppendString(buf, st.Note)
	}
	return buf, nil
}

// UnmarshalBinary decodes an entry previously written by
// MarshalBinary. Arbitrary input is safe: string lengths and the stage
// count are bounded by the payload size before any allocation.
func (e *Entry) UnmarshalBinary(data []byte) error {
	r := wire.NewReader("service: entry codec", data)
	r.Header(entryMagic, entryVersion)

	var dec Entry
	dec.Fingerprint = r.String()
	s := &dec.Summary
	s.Kernel = r.String()
	s.Success = r.Byte() != 0
	s.MII = int(r.Varint())
	s.II = int(r.Varint())
	s.Candidates = int(r.Varint())
	s.PartitionK = int(r.Varint())
	s.QoM = r.Float()
	s.Guidance = r.String()
	s.BudgetStage = r.String()
	if nStages := r.Count("stage", 2); nStages > 0 {
		s.Stages = make([]core.StageRecord, nStages)
		for i := range s.Stages {
			s.Stages[i] = core.StageRecord{Stage: r.String(), Note: r.String()}
		}
	}
	if err := r.Done(); err != nil {
		return err
	}
	*e = dec
	return nil
}
