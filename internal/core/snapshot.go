package core

import "fmt"

// CopyFrom makes en's mutable state a deep copy of src's, a journal engine
// built from the same Config shape (same Keys; the layout is a pure
// function of configuration): the base's version truth and epoch count,
// the checkpointed versions, the journal's log state and a deep clone of
// the active JMT. en keeps its own run-phase configuration, seed included:
// client streams are Split from the seed at Run time. src must be
// quiescent (see Base.CopyBase); it is only read.
func (en *Engine) CopyFrom(src Host) error {
	s, ok := src.(*Engine)
	if !ok {
		return fmt.Errorf("core: copy from a foreign engine (%T)", src)
	}
	if err := en.CopyBase(&s.Base); err != nil {
		return err
	}
	copy(en.ckpted, s.ckpted)
	en.jr.jmt = s.jr.jmt.clone()
	en.jr.spare = nil
	en.jr.CopyFrom(s.jr.GroupCommit, &en.jr.jmt.entries)
	en.ckptSnapshot = nil
	return nil
}
