package workload

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseWorkload: any bytes either fail to parse with a workload:
// error, or parse into a workload that Encode → Parse gives back
// unchanged. Seeds cover a recorded file and the malformed shapes the
// parser names; testdata/fuzz holds the rest of the corpus.
func FuzzParseWorkload(f *testing.F) {
	hdr := `{"format":"atlas-workload","version":1,"table":"census","start":"2026-01-02T03:04:05.5+01:00"}` + "\n"
	for _, s := range []string{
		hdr,
		hdr + `{"seq":0,"offsetNs":0,"op":"session-explore","input":"EXPLORE census","session":0}` + "\n" +
			`{"seq":1,"offsetNs":1500,"op":"drill","input":"drill map=0 region=1","session":0,"durNs":9,"ledger":{"chunksScanned":3,"rpcs":1}}` + "\n\n" +
			`{"seq":2,"offsetNs":2000,"op":"explore","input":"EXPLORE nosuch","session":-1,"outcome":"error"}` + "\n",
		hdr + "null\n",
		hdr + `{"seq":"x"}` + "\n",
		`{"format":"atlas-workload","version":2}` + "\n",
		"",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		w, err := Parse(bytes.NewReader(in))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "workload: ") {
				t.Fatalf("Parse(%q): unnamed error %v", in, err)
			}
			return
		}
		var buf bytes.Buffer
		if err := w.Encode(&buf); err != nil {
			t.Fatalf("Encode of parsed %q: %v", in, err)
		}
		again, err := Parse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("encoding %q of %q does not parse: %v", buf.Bytes(), in, err)
		}
		// The start instant must survive; its *time.Location need not
		// ("+00:00" may parse as Local, "Z" always parses as UTC).
		if !again.Header.Start.Equal(w.Header.Start) {
			t.Fatalf("round trip of %q moved the start: %v -> %v", in, w.Header.Start, again.Header.Start)
		}
		again.Header.Start = w.Header.Start
		if !reflect.DeepEqual(w, again) {
			t.Fatalf("round trip of %q changed the workload:\n got %+v\nwant %+v", in, again, w)
		}
	})
}
