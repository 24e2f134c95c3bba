package openflow

import (
	"reflect"
	"testing"
)

// FuzzOpenflowDecode: Decode never panics on arbitrary bytes, and any
// message that decodes re-encodes to bytes that decode to an equal
// message.
func FuzzOpenflowDecode(f *testing.F) {
	for _, tc := range goldenMessages {
		f.Add(Encode(tc.msg))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, _, err := Decode(data)
		if err != nil {
			return
		}
		again, n, err := Decode(Encode(m))
		if err != nil {
			t.Fatalf("re-encoded %s does not decode: %v", m.Type(), err)
		}
		if enc := Encode(m); n != len(enc) {
			t.Fatalf("re-encoded %s: consumed %d of %d bytes", m.Type(), n, len(enc))
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("%s round trip changed the message:\n first  %#v\n second %#v", m.Type(), m, again)
		}
	})
}
