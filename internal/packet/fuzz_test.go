package packet

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzUnmarshal feeds arbitrary bytes to Unmarshal, the first thing a
// live node does with a datagram. No input may panic, and every accepted
// packet must re-marshal to WireSize bytes that decode to an equal packet
// whose own encoding is the same bytes. Values are compared by their %#v
// form, which, unlike reflect.DeepEqual, counts a NaN field equal to
// itself. The seed corpus in testdata/fuzz/FuzzUnmarshal holds one valid
// encoding of each packet type.
func FuzzUnmarshal(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := Unmarshal(b)
		if err != nil {
			return
		}
		enc, err := p.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted %s does not re-marshal: %v", p.Kind(), err)
		}
		if len(enc) != p.WireSize() {
			t.Fatalf("%s: re-marshalled length %d != WireSize %d", p.Kind(), len(enc), p.WireSize())
		}
		q, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("re-marshalled %s does not decode: %v", p.Kind(), err)
		}
		if pv, qv := fmt.Sprintf("%#v", p), fmt.Sprintf("%#v", q); pv != qv {
			t.Fatalf("round trip changed the packet:\n%s\n%s", pv, qv)
		}
		enc2, err := q.MarshalBinary()
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("%s encoding is not stable across a round trip (err %v)", p.Kind(), err)
		}
	})
}
