package sim

import (
	"testing"
	"testing/quick"
)

func TestLinkReserveSequential(t *testing.T) {
	var l Link
	s1, e1 := l.Reserve(0, 100)
	if s1 != 0 || e1 != 100 {
		t.Fatalf("first slot [%v,%v], want [0,100]", s1, e1)
	}
	// Request at time 50 while busy until 100: queued behind.
	s2, e2 := l.Reserve(50, 30)
	if s2 != 100 || e2 != 130 {
		t.Fatalf("second slot [%v,%v], want [100,130]", s2, e2)
	}
	// Request after idle period: starts immediately.
	s3, e3 := l.Reserve(500, 10)
	if s3 != 500 || e3 != 510 {
		t.Fatalf("third slot [%v,%v], want [500,510]", s3, e3)
	}
	if l.busy != 140 {
		t.Fatalf("Busy = %v, want 140", l.busy)
	}
}

// Property: link reservations never overlap and never start before
// requested.
func TestLinkNoOverlapProperty(t *testing.T) {
	f := func(reqs []struct{ At, Dur uint16 }) bool {
		var l Link
		var lastEnd Time
		for _, r := range reqs {
			s, e := l.Reserve(Time(r.At), Time(r.Dur))
			if s < Time(r.At) || s < lastEnd || e != s+Time(r.Dur) {
				return false
			}
			lastEnd = e
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStripedSpreadsLoad(t *testing.T) {
	s := NewStriped(4)
	// Four simultaneous requests: all should start at 0 on distinct links.
	for i := 0; i < 4; i++ {
		st, _, _ := s.reserve(0, 100)
		if st != 0 {
			t.Fatalf("request %d started at %v, want 0", i, st)
		}
	}
	// Fifth queues behind the earliest.
	st, _, _ := s.reserve(0, 100)
	if st != 100 {
		t.Fatalf("fifth request started at %v, want 100", st)
	}
	if s.Width() != 4 {
		t.Fatalf("Width = %d", s.Width())
	}
	if s.Busy() != 500 {
		t.Fatalf("Busy = %v, want 500", s.Busy())
	}
}

func TestStripedSingleDegeneratesToLink(t *testing.T) {
	s := NewStriped(1)
	s.reserve(0, 50)
	st, _, _ := s.reserve(0, 50)
	if st != 50 {
		t.Fatalf("second request started at %v, want 50", st)
	}
}

func TestStripedZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewStriped(0) did not panic")
		}
	}()
	NewStriped(0)
}

func TestTokenMutualExclusion(t *testing.T) {
	e := NewEngine(1)
	var tok Token
	inside := 0
	maxInside := 0
	grants := 0
	for i := 0; i < 5; i++ {
		e.spawn("p", func(p *Proc) {
			acquire(&tok, p, "cs")
			grants++
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			advance(p, 100)
			inside--
			tok.Release(p.Fiber)
		})
	}
	end, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Fatalf("max concurrent holders = %d, want 1", maxInside)
	}
	if end != 500 {
		t.Fatalf("end = %v, want fully serialized 500", end)
	}
	if grants != 5 {
		t.Fatalf("grants = %d, want 5", grants)
	}
}

func TestTokenReleaseByNonHolderPanics(t *testing.T) {
	e := NewEngine(1)
	var tok Token
	e.spawn("holder", func(p *Proc) {
		acquire(&tok, p, "cs")
		advance(p, 100)
		tok.Release(p.Fiber)
	})
	e.spawn("thief", func(p *Proc) {
		advance(p, 10)
		defer func() {
			if recover() == nil {
				t.Error("Release by non-holder did not panic")
			}
		}()
		tok.Release(p.Fiber)
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}
