package sim

// A FanIn joins the completions of timed work — flash reads and programs,
// whose completion instants are known when they are issued — into one
// future, without an object or an event per input. Each input is its
// completion instant plus the sequence number its completion event would
// have drawn (ReserveSeq). The fan-in keeps only the (at, seq)-latest input
// and, once closed, puts one event there. The result dispatches exactly as
// AfterAll over one AtHandler future per input:
//
//   - no inputs: done at Close;
//   - one input: done by that input's event;
//   - more: done one same-instant hop after the latest input's event, the
//     hop AfterAll's join record takes.
//
// The inputs it drops are events with no effect of their own and the hops
// they fed into the join. Dropping events only removes sequence numbers,
// and dispatch compares sequence numbers without reading their values, so
// every remaining event keeps its relative order.
//
// A fan-in may also join one Future (a nested operation's output), as
// AfterAll joins it, and add a fixed delay after the join, reached through
// one same-instant hop and then a timer. Embed a FanIn in a record that is
// allocated anyway and Init it, or build it in a local variable and Detach
// it.
type FanIn struct {
	Future // completes at the join, after any delay

	at    VTime  // latest timed input
	seq   uint64 // its reserved sequence number
	delay VTime
	fut   *Future // the joined future, if any
	timed int32   // timed inputs added
	left  int32   // arrivals still due once closed (the timed inputs count one)
}

// Add joins a timed input: completion at at, under the sequence number seq
// reserved for it with ReserveSeq.
func (f *FanIn) Add(at VTime, seq uint64) {
	if f.timed == 0 || at > f.at || (at == f.at && seq > f.seq) {
		f.at, f.seq = at, seq
	}
	f.timed++
}

// Await joins fut. A fan-in joins at most one future.
func (f *FanIn) Await(fut *Future) {
	if f.fut != nil {
		panic("sim: FanIn joins one future at most")
	}
	f.fut = fut
}

// Delay sets a fixed delay between the join and the completion.
func (f *FanIn) Delay(d VTime) { f.delay = d }

// Close arms the fan-in once every input has been added and returns the
// future that completes at the join. When the joined future is the only
// input and there is no delay, that future itself is the result.
func (f *FanIn) Close() *Future {
	n := f.timed
	if f.fut != nil {
		n++
	}
	switch {
	case n == 0:
		f.joined()
	case f.fut == nil && n == 1:
		f.eng.InjectCompletion(f.at, f.seq, f)
	case n == 1:
		if f.delay == 0 {
			return f.fut
		}
		// The joined future's completion is the join: its waiter hop is
		// the delay's first hop.
		f.fut.OnCompleteHandler((*fanDelay)(f))
	default:
		if f.timed > 0 {
			f.left++
			f.eng.InjectCompletion(f.at, f.seq, f)
		}
		if f.fut != nil {
			f.left++
			f.fut.OnCompleteHandler((*fanHop)(f))
		}
	}
	return &f.Future
}

// Detach is Close for a fan-in built in a local variable. With nothing to
// wait for it returns the joined future or the engine's shared done
// future; otherwise it moves the fan-in to the heap and closes it there.
func (f *FanIn) Detach() *Future {
	if f.timed == 0 && f.delay == 0 {
		if f.fut != nil {
			return f.fut
		}
		return CompletedFuture(f.eng)
	}
	h := new(FanIn)
	*h = *f
	return h.Close()
}

// Fire is the latest timed input's completion event.
func (f *FanIn) Fire() {
	if f.left == 0 {
		f.joined()
		return
	}
	f.eng.AtHandler(f.eng.now, (*fanHop)(f))
}

// joined runs at the join: completion, or the delay's first hop.
func (f *FanIn) joined() {
	if f.delay == 0 {
		f.Complete()
		return
	}
	f.eng.AtHandler(f.eng.now, (*fanDelay)(f))
}

// fanHop is a FanIn as the hop that follows one arrival: the timed inputs'
// event or the joined future's completion.
type fanHop FanIn

func (h *fanHop) Fire() {
	f := (*FanIn)(h)
	f.left--
	if f.left == 0 {
		f.joined()
	}
}

// fanDelay is a FanIn stepping through its delay: the hop after the join
// books the timer, and the timer completes the fan-in.
type fanDelay FanIn

func (h *fanDelay) Fire() {
	f := (*FanIn)(h)
	if d := f.delay; d > 0 {
		f.delay = 0
		f.eng.AtHandler(f.eng.now+d, h)
		return
	}
	f.Complete()
}
