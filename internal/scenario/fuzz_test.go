package scenario

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzSpec feeds arbitrary JSON through the spec pipeline a job
// submission takes: Parse, Validate, Canonical and Hash must never
// panic, on specs Parse rejects too. For a spec Parse accepts,
// Canonical must be idempotent and still validate, and Hash must
// survive a MarshalIndent and Parse round trip. The seeds are every
// registry entry's JSON plus malformed bodies. Run with `make fuzz`.
func FuzzSpec(f *testing.F) {
	for _, s := range All() {
		data, err := s.MarshalIndent()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, body := range []string{
		``,
		`{`,
		`null`,
		`[]`,
		`"case"`,
		`{"kind":"case"}`,
		`{"kind":"case","category":"Train + Test","runs":-1}`,
		`{"kind":"case","category":"Train + Test","runs":1e3}`,
		`{"kind":"case","category":"Train + Test","rnus":5}`,
		`{"kind":"case","category":"Train + Test","defense":{}}`,
		`{"kind":"case","category":"Train + Test","defense":{"strategy":"A","stack":"D"}}`,
		`{"kind":"variant","variant":"R^KI, S^SI', R^KI","category":"Test + Hit"}`,
		`{"kind":"defense-sweep","defense":{"stack":"R(-3)"}}`,
		`{"kind":"defense-matrix","strategies":["R(","A+R(9)+D"]}`,
		`{"kind":"noise-sweep","category":"Train + Test","jitters":[],"mem_jitter":5}`,
		`{"kind":"conf-sweep","category":"Train + Test","confidences":[0]}`,
		`{"kind":"sim","program":"x.vasm","scheme":"hash"}`,
		`{"kind":"cachebench","pattern":"faa-vu-aa"}`,
		`{"kind":"cachebench","pattern":"faa-vu-star-line"}`,
		`{"kind":"cachebench-matrix","patterns":["faa-vu-aa-line",""]}`,
		`{"kind":"case","category":"Train + Test"} {"kind":"sim"}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var raw Spec
		if json.Unmarshal(data, &raw) == nil {
			_ = raw.Validate()
			_ = raw.Hash()
		}
		s, err := Parse(data)
		if err != nil {
			return
		}
		c := s.Canonical()
		if cc := c.Canonical(); !reflect.DeepEqual(cc, c) {
			t.Fatalf("Canonical is not idempotent:\n%+v\n%+v", c, cc)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("the canonical spec does not validate: %v\n%+v", err, c)
		}
		out, err := s.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("the marshaled spec does not parse: %v\n%s", err, out)
		}
		if back.Hash() != s.Hash() {
			t.Fatalf("Hash changed across MarshalIndent and Parse:\n%s", out)
		}
	})
}
