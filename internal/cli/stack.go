package cli

import (
	"flag"

	checkin "github.com/checkin-kv/checkin"
)

// Stack holds the flags both commands use to pick the simulated stack.
// Config turns them into a checkin.Config.
type Stack struct {
	Seed   *int64
	Engine *string
	FTLMap *string
	Errors *string
}

// StackFlags registers -seed, -engine, -ftlmap and -errors on the default
// flag set; call it before flag.Parse. scope, inserted into the -engine and
// -errors help, says which runs they apply to ("" for a single run).
func StackFlags(scope string) Stack {
	return Stack{
		Seed:   flag.Int64("seed", 1, "simulation seed"),
		Engine: flag.String("engine", "journal", "host storage-engine backend"+scope+": journal (paper's journal+JMT) | lsm (WAL + memtable + sorted runs)"),
		FTLMap: flag.String("ftlmap", "dram", "FTL mapping-table model: dram (full table in controller DRAM) | dftl (flash-resident translation pages; charges mapping misses and writebacks through NAND timing) | dftl-basic (dftl without the CMT optimizations)"),
		Errors: flag.String("errors", "off", "NAND error profile"+scope+": off | light | heavy"),
	}
}

// Config returns checkin.DefaultConfig with the stack flags applied: the
// seed, host engine, mapping model and the -errors profile's fault rates.
// An unknown profile is an error here; -engine and -ftlmap are checked by
// checkin.Open.
func (s Stack) Config() (checkin.Config, error) {
	p, err := checkin.ParseErrorProfile(*s.Errors)
	if err != nil {
		return checkin.Config{}, err
	}
	cfg := checkin.DefaultConfig()
	cfg.Seed = *s.Seed
	cfg.Engine = *s.Engine
	cfg.FTLMap = *s.FTLMap
	return p.Apply(cfg), nil
}
