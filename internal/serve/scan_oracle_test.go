package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
)

// The encoding/json request decoder this package served with before
// scan.go, kept verbatim as the differential oracle: the envelope
// decoded with json.Decoder into raw instances, each instance with
// json.Unmarshal (dense) or a strict json.Decoder (sparse).

func oracleRequest(body []byte) ([]Instance, error) {
	var req struct {
		Instances []json.RawMessage `json:"instances"`
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	if len(req.Instances) == 0 {
		return nil, errors.New("no instances")
	}
	insts := make([]Instance, len(req.Instances))
	for i, raw := range req.Instances {
		var err error
		if insts[i], err = oracleInstance(raw); err != nil {
			return nil, fmt.Errorf("instance %d: %w", i, err)
		}
	}
	return insts, nil
}

type oracleSparse struct {
	Indices []int     `json:"indices"`
	Values  []float64 `json:"values"`
}

func oracleInstance(raw json.RawMessage) (Instance, error) {
	switch firstByte(raw) {
	case '[':
		var row []float64
		if err := json.Unmarshal(raw, &row); err != nil {
			return Instance{}, fmt.Errorf("bad dense instance: %w", err)
		}
		return Instance{Dense: row}, nil
	case '{':
		var sp oracleSparse
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&sp); err != nil {
			return Instance{}, fmt.Errorf("bad sparse instance: %w", err)
		}
		if sp.Indices == nil || sp.Values == nil {
			return Instance{}, fmt.Errorf("sparse instance needs both \"indices\" and \"values\"")
		}
		return Instance{Indices: sp.Indices, Values: sp.Values, Sparse: true}, nil
	default:
		return Instance{}, fmt.Errorf("instance must be an array or an {indices, values} object")
	}
}

func firstByte(raw json.RawMessage) byte {
	for _, c := range raw {
		switch c {
		case ' ', '\t', '\n', '\r':
			continue
		}
		return c
	}
	return 0
}

// The deliberate differences: every way a body the oracle accepts may
// be rejected by the scanner (DESIGN.md "Serving side" lists them).
const (
	diffTrailing  = "trailing-data"   // bytes after the request object
	diffNull      = "null-element"    // null where a number belongs
	diffDuplicate = "duplicate-key"   // instances, indices or values twice
	diffSpelling  = "key-spelling"    // a known key escaped or case-folded
	diffTopFolded = "folded-toplevel" // diffSpelling of "instances" itself
)

// differences names the deliberate differences present in body, which
// the oracle or the scanner has accepted. diffTopFolded is the one that
// puts a body outside the comparison altogether: the oracle reads the
// folded member as the instances and the scanner skips it as an unknown
// one, so the two decode different parts of the body.
func differences(body []byte) map[string]bool {
	found := map[string]bool{}
	dec := json.NewDecoder(bytes.NewReader(body))
	var top json.RawMessage
	if dec.Decode(&top) != nil {
		return found
	}
	if strings.Trim(string(body[dec.InputOffset():]), " \t\r\n") != "" {
		found[diffTrailing] = true
	}
	seen := 0
	members(top, func(key string, upto []byte, val json.RawMessage) {
		if !strings.EqualFold(key, "instances") {
			return
		}
		if seen++; seen > 1 {
			found[diffDuplicate] = true
		}
		if !bytes.HasSuffix(upto, []byte(`"instances"`)) {
			found[diffSpelling], found[diffTopFolded] = true, true
		}
		var insts []json.RawMessage
		if json.Unmarshal(val, &insts) != nil {
			return // an earlier duplicate the oracle overwrote
		}
		for _, inst := range insts {
			switch firstByte(inst) {
			case '[':
				noteNulls(inst, found)
			case '{':
				var haveIdx, haveVal bool
				members(inst, func(key string, upto []byte, val json.RawMessage) {
					name, have := `"indices"`, &haveIdx
					if strings.EqualFold(key, "values") {
						name, have = `"values"`, &haveVal
					}
					if *have {
						found[diffDuplicate] = true
					}
					*have = true
					if !bytes.HasSuffix(upto, []byte(name)) {
						found[diffSpelling] = true
					}
					noteNulls(val, found)
				})
			}
		}
	})
	return found
}

// members calls f for each member of the JSON object raw: the decoded
// key, raw up to the end of the key as the body spells it, and the value.
func members(raw json.RawMessage, f func(key string, upto []byte, val json.RawMessage)) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	if _, err := dec.Token(); err != nil {
		return
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return
		}
		upto := raw[:dec.InputOffset()]
		var val json.RawMessage
		if dec.Decode(&val) != nil {
			return
		}
		f(tok.(string), upto, val)
	}
}

func noteNulls(raw json.RawMessage, found map[string]bool) {
	var elems []any
	if json.Unmarshal(raw, &elems) != nil {
		return
	}
	for _, e := range elems {
		if e == nil {
			found[diffNull] = true
		}
	}
}
