package telemetry

import (
	"bytes"
	"math/rand"
	"testing"

	"sharqfec/internal/scoping"
	"sharqfec/internal/topology"
)

// randomEvent draws an event over the writer's full representable range:
// every kind, sentinel and non-sentinel values for each omittable field,
// and Origin coupled to Hops the way emitters produce them.
func randomEvent(rng *rand.Rand) Event {
	e := Event{
		T:     float64(rng.Intn(100_000_000)) / 1e3, // [0, 1e5), millisecond grid
		Kind:  Kind(rng.Intn(int(numKinds))),
		Node:  topology.NodeID(rng.Intn(64) - 1), // includes NoNode
		Zone:  scoping.NoZone,
		Group: -1,
	}
	if rng.Intn(2) == 0 {
		// Full-precision, non-dyadic virtual time, as the event queue
		// produces after sums of link latencies and timer draws.
		e.T = rng.Float64() * 1e5
	}
	if rng.Intn(2) == 0 {
		e.Zone = scoping.ZoneID(rng.Intn(32))
	}
	if rng.Intn(2) == 0 {
		e.Group = int64(rng.Intn(256))
	}
	if rng.Intn(2) == 0 {
		e.Hops = int64(1 + rng.Intn(8))
		e.Origin = topology.NodeID(rng.Intn(64))
	}
	if rng.Intn(2) == 0 {
		e.A = int64(rng.Intn(1 << 20))
	}
	if rng.Intn(2) == 0 {
		e.B = int64(rng.Intn(64))
	}
	if rng.Intn(2) == 0 {
		e.F = float64(rng.Intn(1_000_000)) / 1e4
	}
	return e
}

// TestEventLineRoundTrip is the replay fidelity property: for random
// events, encode → ParseEventLine restores the original time exactly and
// re-encoding reproduces the original JSONL bytes, so offline span
// assembly sees what live assembly saw.
func TestEventLineRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var first, second bytes.Buffer
	w1 := NewEventWriter(&first)
	sink1 := w1.Sink()

	events := make([]Event, 500)
	for i := range events {
		events[i] = randomEvent(rng)
	}
	events[0].T = 6.0123456789
	events[1].T = 0.1 + 0.2
	for _, e := range events {
		sink1(e)
	}
	if err := w1.Flush(); err != nil {
		t.Fatal(err)
	}

	w2 := NewEventWriter(&second)
	sink2 := w2.Sink()
	lines := bytes.Split(bytes.TrimSuffix(first.Bytes(), []byte("\n")), []byte("\n"))
	if len(lines) != len(events) {
		t.Fatalf("wrote %d lines, want %d", len(lines), len(events))
	}
	for i, line := range lines {
		e, err := ParseEventLine(line)
		if err != nil {
			t.Fatalf("line %d: %v (%s)", i, err, line)
		}
		if e.Kind != events[i].Kind || e.Node != events[i].Node {
			t.Fatalf("line %d decoded to kind=%v node=%v, want kind=%v node=%v",
				i, e.Kind, e.Node, events[i].Kind, events[i].Node)
		}
		if e.T != events[i].T {
			t.Fatalf("line %d decoded t=%v, want %v exactly (%s)", i, e.T, events[i].T, line)
		}
		sink2(e)
	}
	if err := w2.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		a := bytes.Split(first.Bytes(), []byte("\n"))
		b := bytes.Split(second.Bytes(), []byte("\n"))
		for i := range a {
			if i >= len(b) || !bytes.Equal(a[i], b[i]) {
				t.Fatalf("re-encoded trace diverges at line %d:\n  first:  %s\n  second: %s", i, a[i], b[i])
			}
		}
		t.Fatal("re-encoded trace diverges")
	}
}

func TestParseEventLineRestoresSentinels(t *testing.T) {
	e, err := ParseEventLine([]byte(`{"t":1.5,"ev":"nack_sent","node":3}`))
	if err != nil {
		t.Fatal(err)
	}
	if e.Zone != scoping.NoZone || e.Group != -1 || e.Origin != topology.NoNode || e.Hops != 0 {
		t.Fatalf("sentinels not restored: %+v", e)
	}
	if e.T != 1.5 || e.Kind != KindNACKSent || e.Node != 3 {
		t.Fatalf("fields wrong: %+v", e)
	}
}

func TestParseEventLineErrors(t *testing.T) {
	for _, bad := range []string{
		`{"ev":"nack_sent","node":3}`,        // missing t
		`{"t":1,"node":3}`,                   // missing ev
		`{"t":1,"ev":"nack_sent"}`,           // missing node
		`{"t":1,"ev":"warp_drive","node":3}`, // unknown kind
		`{"t":1,`,                            // malformed JSON
	} {
		if _, err := ParseEventLine([]byte(bad)); err == nil {
			t.Errorf("ParseEventLine(%s) accepted, want error", bad)
		}
	}
}

func TestKindByName(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		got, ok := KindByName(k.String())
		if !ok || got != k {
			t.Errorf("KindByName(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := KindByName("nope"); ok {
		t.Error("KindByName accepted an unknown name")
	}
}
