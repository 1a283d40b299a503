package live

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"parallelagg/internal/workload"
)

// checkPoolCaps takes n holders of each kind from the batch-size pools,
// fails the test unless every column has exactly that capacity, and
// returns them.
func checkPoolCaps(t *testing.T, batch, n int) {
	t.Helper()
	p := poolsFor(batch)
	for i := 0; i < n; i++ {
		r := p.getColRaw()
		if c, d := cap(r.b.Keys), cap(r.b.Vals); c != batch || d != batch {
			t.Errorf("batch %d: raw holder capacities %d/%d", batch, c, d)
		}
		p.colRaw.Put(r)
		pb := p.getColPart()
		for _, c := range []int{cap(pb.pb.Keys), cap(pb.pb.Counts), cap(pb.pb.Sums),
			cap(pb.pb.SumSqs), cap(pb.pb.Mins), cap(pb.pb.Maxs)} {
			if c != batch {
				t.Errorf("batch %d: partial holder column capacity %d", batch, c)
			}
		}
		p.colPart.Put(pb)
	}
}

// TestConcurrentRunsSharePools runs every algorithm from several
// goroutines at once with batch sizes 1, 64 and 4096, so concurrent runs
// draw on and return to the same process-wide exchange pools, while a
// checker goroutine keeps taking holders from those pools. Every result
// must be byte-identical to the sequential oracle, and every holder the
// pools hand out, during and after the runs, must have exactly its batch
// size as capacity. Run it under -race; CI does.
func TestConcurrentRunsSharePools(t *testing.T) {
	batches := []int{1, 64, 4096}
	in := flatten(workload.Zipf(4, 6_000, 900, 1.1, 41))
	wantN, want := sequentialOracle(in)

	stop := make(chan struct{})
	checked := make(chan struct{})
	go func() {
		defer close(checked)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, b := range batches {
				checkPoolCaps(t, b, 4)
			}
		}
	}()

	var runs sync.WaitGroup
	for _, b := range batches {
		for _, alg := range Algorithms() {
			runs.Add(1)
			go func() {
				defer runs.Done()
				cfg := Config{Workers: 3, TableEntries: 64, Batch: b}
				for rep := 0; rep < 2; rep++ {
					res, err := Aggregate(cfg, in, alg)
					if err != nil {
						t.Errorf("%v batch %d: %v", alg, b, err)
						return
					}
					if !bytes.Equal(resultBytes(res), want) {
						t.Errorf("%v batch %d: %d groups differ from the sequential oracle's %d",
							alg, b, len(res.Groups), wantN)
					}
				}
			}()
		}
	}
	runs.Wait()
	close(stop)
	<-checked

	for _, b := range batches {
		t.Run(fmt.Sprintf("batch%d", b), func(t *testing.T) { checkPoolCaps(t, b, 64) })
	}
}
