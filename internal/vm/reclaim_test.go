package vm

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/stripefs"
)

// residentPages returns every page of v that is mapped to a frame not on
// the free list (hot or resident), in page order.
func residentPages(v *VM) []int64 {
	var pages []int64
	for p := range v.pt {
		if v.pt[p].state == hot || v.pt[p].state == resident {
			pages = append(pages, int64(p))
		}
	}
	return pages
}

// TestReclaimAllFramesPinnedBySpans drives reclaim against a pool whose
// every resident frame was just re-stored through the hot probe, so
// every page is marked referenced and dirty — the strongest protection
// second chance grants — and the sweep must strip reference bits and
// still find victims rather than livelock, and the evicted pages'
// stores must survive the write-back / re-fault round trip.
func TestReclaimAllFramesPinnedBySpans(t *testing.T) {
	_, v := newVM(t, 8, 64)
	ps := v.Params().PageSize
	base, err := v.Alloc("x", 64*ps)
	if err != nil {
		t.Fatal(err)
	}

	// Dirty more pages than the pool has frames, then re-mark every page
	// that stayed resident before each new burst of faults.
	for round := int64(0); round < 8; round++ {
		for _, p := range residentPages(v) {
			if !v.StoreFast(base+p*ps, uint64(p)) {
				t.Fatalf("round %d: hot store on resident page %d refused", round, p)
			}
		}
		for i := int64(0); i < 8; i++ {
			page := round*8 + i
			v.StoreI64(base+page*ps, page)
		}
		if err := v.Pool().CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got, want := v.ResidentFrames(), v.Pool().Frames(); got > want {
			t.Fatalf("round %d: %d resident frames in a %d-frame pool", round, got, want)
		}
	}

	// Every store — including those evicted and re-faulted — reads back.
	for page := int64(0); page < 64; page++ {
		if got := v.LoadI64(base + page*ps); got != page {
			t.Fatalf("page %d = %d after eviction round trip, want %d", page, got, page)
		}
	}
	if err := v.Pool().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestQuotaZeroIsUnlimited pins the quota-of-zero contract: zero means
// unlimited, never over-quota — not a starvation quota — and moving a
// tenant between zero and a breached finite quota keeps the pool's
// over-quota census exact in both directions.
func TestQuotaZeroIsUnlimited(t *testing.T) {
	_, v := newVM(t, 16, 64)
	ps := v.Params().PageSize
	base, err := v.Alloc("x", 64*ps)
	if err != nil {
		t.Fatal(err)
	}
	v.SetQuota(0)
	for page := int64(0); page < 64; page++ {
		v.StoreI64(base+page*ps, page)
		if v.overQuota() {
			t.Fatalf("page %d: tenant with quota 0 counted over quota", page)
		}
		if v.Pool().overQuota != 0 {
			t.Fatalf("page %d: over-quota census %d with quotas disabled", page, v.Pool().overQuota)
		}
	}
	if err := v.Pool().CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Imposing a finite quota below current residency must register in
	// the census immediately; lifting it back to zero must clear it.
	if v.ResidentFrames() < 3 {
		t.Fatalf("want at least 3 resident frames, have %d", v.ResidentFrames())
	}
	v.SetQuota(2)
	if !v.overQuota() || v.Pool().overQuota != 1 {
		t.Fatalf("quota 2 under residency %d: overQuota=%v census=%d, want breach counted",
			v.ResidentFrames(), v.overQuota(), v.Pool().overQuota)
	}
	v.SetQuota(0)
	if v.overQuota() || v.Pool().overQuota != 0 {
		t.Fatalf("back to quota 0: overQuota=%v census=%d, want cleared", v.overQuota(), v.Pool().overQuota)
	}
	if err := v.Pool().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestQuotaNegativePanics: a negative quota is a caller bug, not a
// policy.
func TestQuotaNegativePanics(t *testing.T) {
	_, v := newVM(t, 16, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("SetQuota(-1) did not panic")
		}
	}()
	v.SetQuota(-1)
}

// TestPoolSingleTenantTickForTick runs the same access and hint sequence
// through the private-pool constructor (New, the existing single-run
// path) and through an explicit NewPool+Attach single tenant, and
// requires tick-for-tick equality: same final clock, same memory stats,
// same time split, same memory image. The multi-tenant machinery must
// be invisible when there is one tenant and no quota.
func TestPoolSingleTenantTickForTick(t *testing.T) {
	const frames, pages = 24, 96
	drive := func(v *VM) {
		ps := v.Params().PageSize
		base, err := v.Alloc("x", pages*ps)
		if err != nil {
			t.Fatal(err)
		}
		// Two passes of a scan with prefetch-ahead and release-behind,
		// writing on the first pass — enough pressure that reclaim,
		// write-back, and the prefetch queue all engage.
		for pass := 0; pass < 2; pass++ {
			for page := int64(0); page < pages; page++ {
				if page%8 == 0 {
					pf := page + 8
					if n := min64(8, pages-pf); pf < pages && n > 0 {
						v.PrefetchRelease(pf, n, 0, 0)
					}
					if rel := page - 16; rel >= 0 {
						v.Release(rel, 8)
					}
				}
				addr := base + page*ps + (page%7)*8
				if pass == 0 {
					v.StoreI64(addr, page)
				} else if got := v.LoadI64(addr); got != page {
					t.Fatalf("pass %d page %d = %d, want %d", pass, page, got, page)
				}
				v.AddUserOps(16)
			}
		}
		v.Finish()
	}

	run := func(attach func(*sim.Clock, hw.Params, *stripefs.File) *VM) (sim.Time, Stats, TimeStats, *VM) {
		p := hw.Default()
		p.MemoryBytes = frames * p.PageSize
		c := sim.NewClock()
		fs := stripefs.New(c, p, nil)
		f, err := fs.Create("space", pages)
		if err != nil {
			t.Fatal(err)
		}
		v := attach(c, p, f)
		drive(v)
		c.Drain()
		return c.Now(), v.Stats(), v.Times(), v
	}

	soloEnd, soloStats, soloTimes, soloVM := run(New)
	poolEnd, poolStats, poolTimes, poolVM := run(func(c *sim.Clock, p hw.Params, f *stripefs.File) *VM {
		return NewPool(c, p).Attach(f, nil)
	})

	if soloEnd != poolEnd {
		t.Fatalf("final clock: solo %v, pooled %v", soloEnd, poolEnd)
	}
	if soloStats != poolStats {
		t.Fatalf("stats diverge:\nsolo   %+v\npooled %+v", soloStats, poolStats)
	}
	if soloTimes != poolTimes {
		t.Fatalf("time split diverges:\nsolo   %+v\npooled %+v", soloTimes, poolTimes)
	}
	ps := soloVM.Params().PageSize
	for page := int64(0); page < pages; page++ {
		addr := page*ps + (page%7)*8
		if a, b := soloVM.PeekI64(addr), poolVM.PeekI64(addr); a != b {
			t.Fatalf("memory image diverges at page %d: solo %d, pooled %d", page, a, b)
		}
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
