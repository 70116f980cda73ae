package ftl

import (
	"testing"
)

func TestWearStatsBasics(t *testing.T) {
	e, f := newSmall(t, smallCfg())
	ws := f.WearStats()
	if ws.MinErase != 0 || ws.MaxErase != 0 || ws.Spread != 0 || ws.MeanErase != 0 {
		t.Errorf("fresh device wear stats = %+v", ws)
	}
	// Force erases on a subset via overwrite + GC traffic.
	for i := 0; i < 120; i++ {
		f.Write(0, 8192, TagHostData, StreamData)
		e.Run()
	}
	ws = f.WearStats()
	if ws.MaxErase == 0 {
		t.Fatal("no wear accumulated despite GC traffic")
	}
	if ws.Spread != ws.MaxErase-ws.MinErase {
		t.Error("Spread arithmetic wrong")
	}
	if ws.MeanErase <= 0 {
		t.Error("MeanErase not positive")
	}
}

func TestWearLevelDisabledByDefault(t *testing.T) {
	_, f := newSmall(t, smallCfg())
	if f.MaybeWearLevel() {
		t.Error("wear leveling moved a block with threshold 0")
	}
}

func TestWearLevelBoundsSpread(t *testing.T) {
	run := func(threshold uint32) WearStats {
		cfg := smallCfg()
		cfg.WearDeltaThreshold = threshold
		e, f := newSmall(t, cfg)
		// Pin cold data: write a range once, never touch it again; then
		// hammer a hot range so GC recycles only hot blocks.
		f.Write(65536, 32768, TagHostData, StreamData) // cold: 64 slots
		f.Sync(StreamData, TagHostData)
		e.Run()
		for i := 0; i < 400; i++ {
			f.Write(0, 8192, TagHostData, StreamData)
			e.Run()
			if threshold > 0 && i%10 == 0 {
				f.MaybeWearLevel()
				e.Run()
			}
		}
		checkInvariants(t, f)
		// Cold data must still be mapped correctly after any moves.
		for lun := int64(65536 / 512); lun < (65536+32768)/512; lun++ {
			if f.l2p.at(lun) < 0 {
				t.Fatal("wear leveling lost a cold mapping")
			}
		}
		return f.WearStats()
	}
	without := run(0)
	with := run(4)
	if with.Moves == 0 {
		t.Fatal("wear leveling never moved a block")
	}
	if with.Spread > without.Spread {
		t.Errorf("wear leveling increased spread: %d (on) vs %d (off)", with.Spread, without.Spread)
	}
}

func TestWearLevelRespectsMeanGuard(t *testing.T) {
	// With uniform wear (every closed block equally erased) a spread of 0
	// must never trigger a move even at threshold 1.
	cfg := smallCfg()
	cfg.WearDeltaThreshold = 1
	e, f := newSmall(t, cfg)
	f.Write(0, 2048, TagHostData, StreamData)
	e.Run()
	if f.MaybeWearLevel() {
		t.Error("moved a block with zero spread")
	}
}

func TestGCPolicyString(t *testing.T) {
	if GCGreedy.String() != "greedy" || GCCostBenefit.String() != "cost-benefit" || GCFIFO.String() != "fifo" {
		t.Error("policy names wrong")
	}
	if GCPolicy(99).String() == "" {
		t.Error("unknown policy renders empty")
	}
}

func TestGCPoliciesReclaim(t *testing.T) {
	// All three policies must keep a hot-overwrite workload alive and
	// preserve every live mapping.
	for _, pol := range []GCPolicy{GCGreedy, GCCostBenefit, GCFIFO} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			cfg := smallCfg()
			cfg.GCPolicy = pol
			e, f := newSmall(t, cfg)
			for i := 0; i < 150; i++ {
				f.Write(0, 8192, TagHostData, StreamData)
				e.Run()
			}
			f.Sync(StreamData, TagHostData)
			e.Run()
			if f.Stats().GCInvocations+f.Stats().DeadReclaims == 0 {
				t.Fatal("no reclamation happened")
			}
			checkInvariants(t, f)
			for lun := int64(0); lun < 16; lun++ {
				if f.l2p.at(lun) < 0 {
					t.Fatalf("lun %d lost under %v", lun, pol)
				}
			}
		})
	}
}

func TestGreedyMigratesLessThanFIFO(t *testing.T) {
	// Greedy picks min-valid victims, so it should migrate no more slots
	// than FIFO for the same traffic.
	migrated := map[GCPolicy]uint64{}
	for _, pol := range []GCPolicy{GCGreedy, GCFIFO} {
		cfg := smallCfg()
		cfg.GCPolicy = pol
		e, f := newSmall(t, cfg)
		// mixed hot/cold: cold range written once, hot range hammered
		f.Write(65536, 32768, TagHostData, StreamData)
		f.Sync(StreamData, TagHostData)
		e.Run()
		for i := 0; i < 250; i++ {
			f.Write(0, 8192, TagHostData, StreamData)
			e.Run()
		}
		migrated[pol] = f.Stats().GCMigratedSlot
	}
	if migrated[GCGreedy] > migrated[GCFIFO] {
		t.Errorf("greedy migrated %d slots > fifo %d", migrated[GCGreedy], migrated[GCFIFO])
	}
}
