package schemafile

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzSchemaFileRead: no schema text makes Read panic, and the schema of
// what it accepts survives a Write and a second Read unchanged.
func FuzzSchemaFileRead(f *testing.F) {
	f.Add(sample)
	f.Add("relation R (a:int b:int c:int) key c a\n")
	f.Add("relation R (a:int b:int)\nfd R a -> b\n")
	f.Add("relation R (a:int) nonsense\n")
	f.Fuzz(func(t *testing.T, src string) {
		file, err := Read(strings.NewReader(src))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, file.Schema, nil); err != nil {
			t.Fatal(err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-reading the written schema: %v\n%s", err, buf.String())
		}
		want, got := file.Schema.Relations(), again.Schema.Relations()
		if len(got) != len(want) {
			t.Fatalf("%d relations after the round trip, want %d", len(got), len(want))
		}
		for i, rs := range want {
			g := got[i]
			if g.Name != rs.Name || !reflect.DeepEqual(g.Attrs, rs.Attrs) || !reflect.DeepEqual(g.Key, rs.Key) {
				t.Fatalf("relation %d: round trip gave %+v, want %+v", i, g, rs)
			}
		}
	})
}
