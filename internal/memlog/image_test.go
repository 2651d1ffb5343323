package memlog

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/wire"
)

// registerTestContainers is the "component factory" of the image tests:
// the same registration sequence materializes a decoded store.
func registerTestContainers(s *Store) (*Cell[int64], *Map[string, string], *Slice[int32]) {
	c := NewCell(s, "t.cell", int64(7))
	m := NewMap[string, string](s, "t.map")
	sl := NewSlice[int32](s, "t.slice")
	return c, m, sl
}

// buildStore assembles a store with realistic history: mutations,
// checkpoints, deletions, and an empty undo log at the end. legacy
// selects the legacy full-copy checkpoint path (FullCopy only).
func buildStore(t *testing.T, mode Instrumentation, legacy bool) *Store {
	t.Helper()
	s := NewStore("img-test", mode)
	s.SetLegacyCheckpoint(legacy)
	s.SetLogging(true)
	c, m, sl := registerTestContainers(s)
	s.Checkpoint()
	c.Set(42)
	m.Set("alpha", "a")
	m.Set("beta", "b")
	m.Set("gamma", "c")
	m.Delete("beta")
	for i := int32(0); i < 10; i++ {
		sl.Append(i * 3)
	}
	sl.Set(4, -1)
	sl.Truncate(8)
	s.Checkpoint()
	m.Set("delta", "d")
	s.BaseBytes()
	c.Set(43)
	s.DiscardLog()
	return s
}

func encodeImage(t *testing.T, s *Store) []byte {
	t.Helper()
	e := wire.NewEncoder()
	if err := s.EncodeImage(e); err != nil {
		t.Fatalf("EncodeImage: %v", err)
	}
	return e.Bytes()
}

// decodeAndMaterialize runs the full two-phase decode.
func decodeAndMaterialize(t *testing.T, img []byte) *Store {
	t.Helper()
	d := wire.NewDecoder(img)
	s, err := DecodeStoreImage(d)
	if err != nil {
		t.Fatalf("DecodeStoreImage: %v", err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("trailing bytes after store image: %d", d.Remaining())
	}
	registerTestContainers(s)
	if err := s.FinishDecode(); err != nil {
		t.Fatalf("FinishDecode: %v", err)
	}
	return s
}

// imageCases are the store shapes the image tests cover: every
// instrumentation mode, and FullCopy on both checkpoint paths (the
// incremental default and the legacy whole-state clone).
var imageCases = []struct {
	name   string
	mode   Instrumentation
	legacy bool
}{
	{"Baseline", Baseline, false},
	{"Unoptimized", Unoptimized, false},
	{"Optimized", Optimized, false},
	{"FullCopy", FullCopy, false},
	{"FullCopyLegacyCheckpoint", FullCopy, true},
}

func TestStoreImageRoundTrip(t *testing.T) {
	for _, tc := range imageCases {
		t.Run(tc.name, func(t *testing.T) {
			src := buildStore(t, tc.mode, tc.legacy)
			img := encodeImage(t, src)
			dec := decodeAndMaterialize(t, img)
			if dec.LegacyCheckpointing() != tc.legacy {
				t.Fatalf("decoded store lost the checkpoint path: legacy=%v", dec.LegacyCheckpointing())
			}
			// decode∘encode ≡ identity: re-encoding the decoded store must
			// reproduce the image byte for byte.
			img2 := encodeImage(t, dec)
			if !bytes.Equal(img, img2) {
				t.Fatal("encode(decode(encode(S))) differs from encode(S)")
			}
			// And the image must equal the one an in-memory ForkClone
			// produces — the decoded store is indistinguishable from a fork.
			fc := encodeImage(t, src.ForkClone())
			if !bytes.Equal(img, fc) {
				t.Fatal("decoded image differs from ForkClone image")
			}
		})
	}
}

// TestStoreImageFullCopyBehavior drives a decoded FullCopy store and a
// ForkClone of the original through the same checkpoint/rollback
// sequence and requires identical final images, on both checkpoint
// paths.
func TestStoreImageFullCopyBehavior(t *testing.T) {
	for _, legacy := range []bool{false, true} {
		name := "incremental"
		if legacy {
			name = "LegacyCheckpoint"
		}
		t.Run(name, func(t *testing.T) {
			src := buildStore(t, FullCopy, legacy)
			dec := decodeAndMaterialize(t, encodeImage(t, src))
			fork := src.ForkClone()

			drive := func(s *Store) {
				c := NewCell(s, "t.cell", int64(0)) // returns the existing cell
				m := NewMap[string, string](s, "t.map")
				s.Checkpoint()
				c.Set(99)
				m.Set("epsilon", "e")
				s.Rollback()
				s.Checkpoint()
				m.Set("zeta", "z")
			}
			drive(dec)
			drive(fork)
			if dec.LegacyCheckpointing() != legacy || fork.LegacyCheckpointing() != legacy {
				t.Fatal("decoded or forked store lost the checkpoint path")
			}
			a := encodeImage(t, dec)
			b := encodeImage(t, fork)
			if !bytes.Equal(a, b) {
				t.Fatal("decoded store diverged from ForkClone under identical operations")
			}
		})
	}
}

func TestStoreImagePendingForkClone(t *testing.T) {
	src := buildStore(t, Optimized, false)
	img := encodeImage(t, src)
	pending, err := DecodeStoreImage(wire.NewDecoder(img))
	if err != nil {
		t.Fatal(err)
	}
	// Fork the pending store twice; materialize each independently.
	for i := 0; i < 2; i++ {
		f := pending.ForkClone()
		registerTestContainers(f)
		if err := f.FinishDecode(); err != nil {
			t.Fatalf("fork %d: %v", i, err)
		}
		if got := encodeImage(t, f); !bytes.Equal(img, got) {
			t.Fatalf("fork %d image differs from source", i)
		}
	}
}

func TestStoreImageRejectsInFlightLog(t *testing.T) {
	s := NewStore("busy", Unoptimized)
	c := NewCell(s, "c", int64(0))
	s.Checkpoint()
	c.Set(1) // leaves an undo record
	if err := s.EncodeImage(wire.NewEncoder()); err == nil {
		t.Fatal("encoded a store with an in-flight undo log")
	}
}

func TestStoreImageTypeMismatch(t *testing.T) {
	src := buildStore(t, Optimized, false)
	img := encodeImage(t, src)
	s, err := DecodeStoreImage(wire.NewDecoder(img))
	if err != nil {
		t.Fatal(err)
	}
	// Materialize t.cell with the wrong element type.
	NewCell(s, "t.cell", "not an int64")
	NewMap[string, string](s, "t.map")
	NewSlice[int32](s, "t.slice")
	err = s.FinishDecode()
	if err == nil || !strings.Contains(err.Error(), "type") {
		t.Fatalf("type mismatch not surfaced: %v", err)
	}
}

func TestStoreImageLeftoverContainer(t *testing.T) {
	src := buildStore(t, Optimized, false)
	img := encodeImage(t, src)
	s, err := DecodeStoreImage(wire.NewDecoder(img))
	if err != nil {
		t.Fatal(err)
	}
	NewCell(s, "t.cell", int64(0)) // factory "forgets" the map and slice
	if err := s.FinishDecode(); err == nil {
		t.Fatal("leftover pending containers not surfaced")
	}
}

func TestStoreImageTruncated(t *testing.T) {
	img := encodeImage(t, buildStore(t, Optimized, false))
	for cut := 0; cut < len(img); cut += 11 {
		if _, err := DecodeStoreImage(wire.NewDecoder(img[:cut])); err == nil {
			// Truncation may also surface later, at materialization.
			s, _ := DecodeStoreImage(wire.NewDecoder(img[:cut]))
			registerTestContainers(s)
			if err := s.FinishDecode(); err == nil {
				t.Fatalf("truncation at %d/%d fully decoded without error", cut, len(img))
			}
		}
	}
}
