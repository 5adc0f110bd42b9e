package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParseProm feeds arbitrary bytes to the exposition parser. The
// coordinator's fleet scrape parses every peer's /metrics body with
// ParseProm, so it is the one reader of exposition bytes that arrive
// over the network. Properties: no input panics, and any accepted
// input survives a re-render unchanged, i.e.
// ParseProm(WriteFamilies(ParseProm(x))) == ParseProm(x). Seeds are the
// writer's golden exposition and a trimmed /fleet/metrics body from a
// coordinator with one live and one dead peer. Run with
// `go test -fuzz FuzzParseProm ./internal/obs` for an open-ended search.
func FuzzParseProm(f *testing.F) {
	for _, name := range []string{"prom_golden.txt", "fleet_sample.txt"} {
		seed, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte("# TYPE a counter\na{b=\"c\\\\d\\\"e\\nf\"} 1\n"))
	// CRLF line ends, with one \r too many on the HELP line.
	f.Add([]byte("# HELP a x\r\r\n# TYPE a counter\r\na 1\r\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		fams, err := ParseProm(bytes.NewReader(in))
		if err != nil {
			return
		}
		var b bytes.Buffer
		if err := WriteFamilies(&b, fams, nil); err != nil {
			t.Fatalf("WriteFamilies: %v", err)
		}
		again, err := ParseProm(bytes.NewReader(b.Bytes()))
		if err != nil {
			t.Fatalf("re-rendered exposition does not parse: %v\n%s", err, b.Bytes())
		}
		if !reflect.DeepEqual(fams, again) {
			t.Fatalf("round trip changed the families:\nfirst  %+v\nsecond %+v\nrendered:\n%s", fams, again, b.Bytes())
		}
	})
}
