// Causal event provenance. When enabled, the kernel reports every
// schedule call as a ProvRecord: the new event's serial sequence number,
// the sequence number of the event whose handler scheduled it (its
// causal parent), its timestamp, a code pointer identifying the
// callback, and an optional component tag. The records, emitted in
// strictly increasing sequence order, form the run's causal DAG — the
// input to internal/prof's critical-path and blame analysis.
//
// The hook is off by default and costs one nil check per schedule call
// plus two word stores per Step when disabled, so the kernel's
// zero-allocation steady state is preserved. Parent capture needs no
// per-event storage in the arena: the kernel knows which event is
// executing, so the parent is a single field updated around the
// callback.
package sim

import "reflect"

// NoProvParent is the Parent value of a root record: an event scheduled
// from outside any event handler (setup code, or the driver between
// kernel steps).
const NoProvParent = ^uint64(0)

// ProvRecord describes one schedule call in the causal event DAG.
type ProvRecord struct {
	// Seq is the scheduled event's serial sequence number — unique and
	// strictly increasing across a run.
	Seq uint64
	// Parent is the sequence number of the event whose handler made the
	// schedule call, or NoProvParent for root events.
	Parent uint64
	// At is the scheduled (firing) timestamp.
	At Time
	// PC is the callback's code pointer (resolve to a name with
	// runtime.FuncForPC). Stable within a process, not across processes;
	// persisted traces intern names, never raw PCs.
	PC uintptr
	// Tag is the provenance domain the schedule call was made under
	// (e.g. a site id assigned by the campaign layer); 0 means untagged.
	Tag int32
}

// SetProvenance installs (or, with nil, removes) the provenance hook.
// fn is called synchronously on the scheduling goroutine for every
// subsequent schedule call; it must not schedule events itself.
func (k *Kernel) SetProvenance(fn func(ProvRecord)) { k.prov = fn }

// SetProvTag sets the provenance domain tag applied to subsequent
// schedule calls. Wrappers (see prof.TagScheduler) set it around each
// delegated call so events are attributed to the component that
// scheduled them; 0 restores the untagged state.
func (k *Kernel) SetProvTag(tag int32) { k.provTag = tag }

// CallbackPC returns the code pointer identifying an event callback:
// the argument-carrying callback when set, else the plain one. Method
// values and closures created from the same code share a PC, which is
// exactly the granularity blame attribution wants.
func CallbackPC(fn func(), argFn func(any)) uintptr {
	if argFn != nil {
		return reflect.ValueOf(argFn).Pointer()
	}
	if fn != nil {
		return reflect.ValueOf(fn).Pointer()
	}
	return 0
}
