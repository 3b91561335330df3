package chaos

import (
	"strings"
	"testing"
)

func TestParseStringRoundTrip(t *testing.T) {
	in := "seed=7;crash:rank=2,iter=3;drop:rank=0,peer=1,frame=4;corrupt:rank=3,peer=2,frame=1;partition:rank=0,peer=3,frame=9"
	s, err := Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 7 || len(s.Faults) != 4 {
		t.Fatalf("parsed %+v", s)
	}
	s2, err := Parse(s.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", s.String(), err)
	}
	if s2.String() != s.String() {
		t.Fatalf("round trip drifted: %q vs %q", s.String(), s2.String())
	}
}

func TestParseEmptyAndErrors(t *testing.T) {
	if s, err := Parse(""); err != nil || s != nil {
		t.Fatalf("empty schedule: %v %v", s, err)
	}
	for _, bad := range []string{
		"boom:rank=0",              // unknown kind
		"drop:rank=0",              // link fault without peer
		"crash:rank",               // not key=value
		"drop:rank=0,peer=1,dur=1", // unknown field
		"seed=x",                   // bad seed
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted garbage", bad)
		}
	}
	// Latency is a link's α-β profile (comm.Shaped), not a fault kind.
	if _, err := Parse("delay:rank=1,peer=0,frame=2"); err == nil || !strings.Contains(err.Error(), `unknown fault kind "delay"`) {
		t.Errorf("delay must be an unknown fault kind, got %v", err)
	}
}

func TestWorkerInjectorReplay(t *testing.T) {
	s, err := Parse("drop:rank=0,peer=1,frame=2;corrupt:rank=0,peer=2,frame=0")
	if err != nil {
		t.Fatal(err)
	}
	if s.Worker(5) != nil {
		t.Fatal("rank with no faults must get a nil injector")
	}
	w := s.Worker(0)
	if w == nil {
		t.Fatal("rank 0 has faults but no injector")
	}
	if w.CrashIter() != -1 {
		t.Fatalf("no crash scheduled, got iter %d", w.CrashIter())
	}
	// Link 0→1: frames 0 and 1 clean, frame 2 dropped.
	for i := 0; i < 2; i++ {
		if a := w.Outbound(1); a.Drop || a.Corrupt {
			t.Fatalf("frame %d: %+v", i, a)
		}
	}
	a := w.Outbound(1)
	if !a.Drop || a.Fault == nil || a.Fault.Kind != Drop {
		t.Fatalf("frame 2: %+v", a)
	}
	// Link 0→2: frame 0 corrupted, independent ordinal space.
	if a := w.Outbound(2); !a.Corrupt || a.Fault == nil {
		t.Fatalf("link 0→2 frame 0: %+v", a)
	}
	// One-shot faults never re-fire.
	if a := w.Outbound(2); a.Corrupt || a.Drop {
		t.Fatalf("link 0→2 frame 1 re-fired: %+v", a)
	}
}

func TestPartitionSeversFromFrame(t *testing.T) {
	s, err := Parse("partition:rank=1,peer=0,frame=2")
	if err != nil {
		t.Fatal(err)
	}
	w := s.Worker(1)
	for i := 0; i < 2; i++ {
		if a := w.Outbound(0); a.Drop {
			t.Fatalf("frame %d severed early", i)
		}
	}
	for i := 2; i < 5; i++ {
		if a := w.Outbound(0); !a.Drop || a.Fault.Kind != Partition {
			t.Fatalf("frame %d not severed: %+v", i, a)
		}
	}
	// Asymmetric: the reverse direction (and other ranks) stay healthy.
	if w2 := s.Worker(0); w2 != nil {
		t.Fatal("rank 0 must be healthy under an 1→0 partition")
	}
}

func TestCrashItersAndClassification(t *testing.T) {
	s, err := Parse("crash:rank=2,iter=5;crash:rank=2,iter=3;crash:rank=0,iter=7")
	if err != nil {
		t.Fatal(err)
	}
	ci := s.CrashIters()
	if ci[2] != 3 || ci[0] != 7 || len(ci) != 2 {
		t.Fatalf("CrashIters: %v", ci)
	}
	if w := s.Worker(2); w.CrashIter() != 3 {
		t.Fatalf("earliest crash wins: %d", w.CrashIter())
	}
	c := Crashed{ID: 2, Iter: 3}
	if !IsCrashed(c) || !IsCrashed(c.Error()) || !IsCrashed("worker 2: "+c.Error()) {
		t.Fatal("IsCrashed misses its own value")
	}
	if IsCrashed("tcpnet: recv on poisoned fabric: worker 2 disconnected") {
		t.Fatal("cascade cause misclassified as scheduled crash")
	}
}

func TestCorruptBytesDeterministic(t *testing.T) {
	a := []byte{1, 2, 3, 4, 5}
	b := []byte{1, 2, 3, 4, 5}
	CorruptBytes(a)
	CorruptBytes(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("corruption not deterministic: % x vs % x", a, b)
		}
	}
	if a[0] == 1 && a[2] == 3 {
		t.Fatalf("nothing flipped: % x", a)
	}
	CorruptBytes(nil) // must not panic
}

// TestCorruptBytesFlipCount pins the exact mutation — which bytes change
// and what they become — so the doc ("up to two bytes: buf[0]^0xFF,
// buf[len/2]^0xA5") cannot drift from the code again. Both byte fabrics
// apply it through comm.Afflict, to a copy of the whole payload.
func TestCorruptBytesFlipCount(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		flipped []int // indices that must differ from the original
	}{
		{"empty", 0, nil},
		{"one byte gets both masks", 1, []int{0}},
		{"len two", 2, []int{0, 1}},
		{"odd length", 5, []int{0, 2}},
		{"even length", 8, []int{0, 4}},
		{"large", 4096, []int{0, 2048}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			orig := make([]byte, tc.n)
			for i := range orig {
				orig[i] = byte(i)
			}
			buf := append([]byte(nil), orig...)
			CorruptBytes(buf)
			var flipped []int
			for i := range buf {
				if buf[i] != orig[i] {
					flipped = append(flipped, i)
				}
			}
			if len(flipped) != len(tc.flipped) {
				t.Fatalf("flipped %d bytes at %v, want %d at %v", len(flipped), flipped, len(tc.flipped), tc.flipped)
			}
			for i, idx := range tc.flipped {
				if flipped[i] != idx {
					t.Fatalf("flipped bytes at %v, want %v", flipped, tc.flipped)
				}
			}
			// Pin the masks, not just the offsets.
			if tc.n == 1 {
				if want := orig[0] ^ 0xFF ^ 0xA5; buf[0] != want {
					t.Fatalf("single byte = %#x, want both masks applied (%#x)", buf[0], want)
				}
			} else if tc.n > 1 {
				if want := orig[0] ^ 0xFF; buf[0] != want {
					t.Fatalf("buf[0] = %#x, want %#x", buf[0], want)
				}
				if want := orig[tc.n/2] ^ 0xA5; buf[tc.n/2] != want {
					t.Fatalf("buf[len/2] = %#x, want %#x", buf[tc.n/2], want)
				}
			}
		})
	}
}
