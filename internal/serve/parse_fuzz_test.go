package serve

import "testing"

// FuzzParseInstance feeds the exported one-instance entry of the request
// scanner — the first code to touch bytes a client sent — arbitrary
// input. It must never panic, and
// whatever it accepts must be exactly one of the two forms the scorers
// take: a dense row and nothing else, or a sparse row with both slices
// present (possibly empty) and no dense part. The committed corpus under
// testdata/fuzz seeds each shape the decoder branches on.
func FuzzParseInstance(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		inst, err := ParseInstance(raw)
		if err != nil {
			return
		}
		if inst.Sparse {
			if inst.Dense != nil || inst.Indices == nil || inst.Values == nil {
				t.Fatalf("accepted sparse %q as %+v: want both slices non-nil and no dense row", raw, inst)
			}
		} else if inst.Dense == nil || inst.Indices != nil || inst.Values != nil {
			t.Fatalf("accepted dense %q as %+v: want a dense row and no sparse part", raw, inst)
		}
	})
}
