package cli

import "flag"

// Stack holds the flags both commands use to pick the simulated stack.
// Their values are checked where they are used: -errors by
// checkin.ParseErrorProfile, -engine and -ftlmap by checkin.Open.
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
