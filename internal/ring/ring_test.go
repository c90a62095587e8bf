package ring

import (
	"sync"
	"testing"
)

func TestTryPushTryPopEmptyFull(t *testing.T) {
	r := New[int](4)
	if r.Cap() != 4 {
		t.Fatalf("Cap() = %d, want 4", r.Cap())
	}
	if _, ok := r.TryPop(); ok {
		t.Fatal("TryPop on empty ring reported a value")
	}
	for i := 0; i < 4; i++ {
		if !r.TryPush(i) {
			t.Fatalf("TryPush %d refused below capacity", i)
		}
	}
	if r.TryPush(99) {
		t.Fatal("TryPush succeeded on a full ring")
	}
	if r.Len() != 4 {
		t.Fatalf("Len() = %d, want 4", r.Len())
	}
	for i := 0; i < 4; i++ {
		v, ok := r.TryPop()
		if !ok || v != i {
			t.Fatalf("TryPop = %d,%v, want %d,true", v, ok, i)
		}
	}
	if _, ok := r.TryPop(); ok {
		t.Fatal("TryPop on drained ring reported a value")
	}
}

// TestWraparound cycles values through a tiny ring many times its
// capacity, so head/tail positions run far past the cell count and
// every cell's sequence number wraps repeatedly.
func TestWraparound(t *testing.T) {
	r := New[int](8)
	next := 0
	for round := 0; round < 1000; round++ {
		n := 1 + round%8
		for i := 0; i < n; i++ {
			if !r.TryPush(next + i) {
				t.Fatalf("round %d: push %d refused", round, next+i)
			}
		}
		for i := 0; i < n; i++ {
			v, ok := r.TryPop()
			if !ok || v != next+i {
				t.Fatalf("round %d: pop = %d,%v, want %d,true", round, v, ok, next+i)
			}
		}
		next += n
	}
}

func TestCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{0, 2}, {1, 2}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {100, 128},
	} {
		if got := New[int](tc.ask).Cap(); got != tc.want {
			t.Errorf("New(%d).Cap() = %d, want %d", tc.ask, got, tc.want)
		}
	}
}

func TestCloseDrainsThenReportsDead(t *testing.T) {
	r := New[int](8)
	for i := 0; i < 3; i++ {
		r.TryPush(i)
	}
	r.Close()
	if !r.Closed() {
		t.Fatal("Closed() = false after Close")
	}
	if r.TryPush(9) {
		t.Fatal("TryPush succeeded on a closed ring")
	}
	if r.Push(9) {
		t.Fatal("Push succeeded on a closed ring")
	}
	// Buffered values drain after close.
	for i := 0; i < 3; i++ {
		v, ok := r.Pop()
		if !ok || v != i {
			t.Fatalf("post-close Pop = %d,%v, want %d,true", v, ok, i)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("Pop on a closed drained ring reported a value")
	}
	r.Close() // idempotent
}

func TestPushBlocksUntilPop(t *testing.T) {
	r := New[int](2)
	r.TryPush(0)
	r.TryPush(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if !r.Push(2) {
			t.Error("blocking Push reported closed")
		}
	}()
	if v, ok := r.Pop(); !ok || v != 0 {
		t.Fatalf("Pop = %d,%v, want 0,true", v, ok)
	}
	<-done
	for _, want := range []int{1, 2} {
		if v, ok := r.Pop(); !ok || v != want {
			t.Fatalf("Pop = %d,%v, want %d,true", v, ok, want)
		}
	}
}

func TestPopBlocksUntilPush(t *testing.T) {
	r := New[int](2)
	got := make(chan int)
	go func() {
		v, ok := r.Pop()
		if !ok {
			t.Error("blocking Pop reported closed")
		}
		got <- v
	}()
	r.Push(42)
	if v := <-got; v != 42 {
		t.Fatalf("Pop = %d, want 42", v)
	}
}

func TestCloseWakesBlockedSides(t *testing.T) {
	full := New[int](2)
	full.TryPush(0)
	full.TryPush(1)
	empty := New[int](2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if full.Push(2) {
			t.Error("Push on closing full ring succeeded")
		}
	}()
	go func() {
		defer wg.Done()
		// The consumer drains the two buffered values, then sees dead.
		for i := 0; i < 2; i++ {
			if _, ok := full.Pop(); !ok {
				t.Error("pre-close values lost")
				return
			}
		}
	}()
	full.Close()
	wg.Wait()

	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, ok := empty.Pop(); ok {
			t.Error("Pop on closed empty ring reported a value")
		}
	}()
	empty.Close()
	wg.Wait()
}

func TestBatchOps(t *testing.T) {
	r := New[int](8)
	for v := 1; v <= 5; v++ {
		if !r.Push(v) {
			t.Fatalf("Push(%d) refused", v)
		}
	}
	buf := make([]int, 0, 3)
	buf = r.PopBatchWait(buf)
	if len(buf) != 3 || buf[0] != 1 || buf[2] != 3 {
		t.Fatalf("PopBatchWait = %v, want [1 2 3] (capped by cap(dst))", buf)
	}
	buf = r.PopBatchWait(buf)
	if len(buf) != 2 || buf[0] != 4 || buf[1] != 5 {
		t.Fatalf("PopBatchWait = %v, want [4 5]", buf)
	}
	r.Close()
	if buf = r.PopBatchWait(buf); len(buf) != 0 {
		t.Fatalf("PopBatchWait on closed ring = %v, want empty", buf)
	}
}

// TestMPSCOrder drives several producers against the single consumer
// and checks per-producer FIFO: values from one producer arrive in the
// order that producer pushed them, regardless of interleaving.
func TestMPSCOrder(t *testing.T) {
	const producers = 4
	const perProducer = 10000
	r := New[[2]int](16)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if !r.Push([2]int{p, i}) {
					t.Errorf("producer %d: push %d refused", p, i)
					return
				}
			}
		}(p)
	}
	go func() {
		wg.Wait()
		r.Close()
	}()
	var lastSeen [producers]int
	for p := range lastSeen {
		lastSeen[p] = -1
	}
	total := 0
	buf := make([][2]int, 0, 32)
	for {
		buf = r.PopBatchWait(buf)
		if len(buf) == 0 {
			break
		}
		for _, v := range buf {
			p, i := v[0], v[1]
			if i != lastSeen[p]+1 {
				t.Fatalf("producer %d: got %d after %d", p, i, lastSeen[p])
			}
			lastSeen[p] = i
			total++
		}
	}
	if total != producers*perProducer {
		t.Fatalf("consumed %d values, want %d", total, producers*perProducer)
	}
}
