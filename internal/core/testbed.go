package core

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/meas"
	"repro/internal/medici"
)

// keptTestbed is what a distributed run places its estimators on: the
// sites with their persistent links, the data source, and — once a
// hierarchical run asked for one — the coordinator's endpoint. A
// decomposition keeps one across runs (testbedFor, DESIGN §12); mu is held
// by the run using it, and only that run touches coord.
type keptTestbed struct {
	mu        sync.Mutex
	key       testbedKey
	tb        *cluster.Testbed
	source    *medici.DataServer
	sourceURL string
	// raw holds the raw measurement sets of the run holding the testbed,
	// which the source serves. It is an allocation of its own because the
	// source's goroutines reach it: nothing they reach may lead back to the
	// testbed, or the finalizer of a dropped decomposition's testbed would
	// never run.
	raw   *atomic.Pointer[[][]meas.Measurement]
	coord *medici.MWClient
}

// testbedKey is what a testbed is built from: the resolved site count and
// transport.
type testbedKey struct {
	sites     int
	transport medici.Transport
}

// newTestbedKey resolves opts for a testbed of p sites.
func newTestbedKey(p int, opts DistributedOptions) testbedKey {
	k := testbedKey{sites: p, transport: opts.Transport}
	if k.transport == nil {
		k.transport = medici.TCPTransport{}
	}
	return k
}

// newKeptTestbed brings up the sites, then the data source.
func newKeptTestbed(key testbedKey) (*keptTestbed, error) {
	tb, err := cluster.NewTestbed(key.sites, 1, key.transport)
	if err != nil {
		return nil, err
	}
	raw := new(atomic.Pointer[[][]meas.Measurement])
	source, err := medici.NewDataServer(key.transport, "127.0.0.1:0", func(req []byte) ([]byte, error) {
		sets := raw.Load()
		if sets == nil {
			return nil, errors.New("core: no run holds the data source")
		}
		subs, err := parseSubRequest(req, len(*sets))
		if err != nil {
			return nil, err
		}
		reply := make([][]meas.Measurement, len(subs))
		for k, si := range subs {
			reply[k] = (*sets)[si]
		}
		return encodeMeasurementSets(reply)
	})
	if err != nil {
		tb.Close()
		return nil, err
	}
	return &keptTestbed{key: key, tb: tb, source: source, sourceURL: source.URL(), raw: raw}, nil
}

// serve makes the data source answer with raw, a run's sets by subsystem.
func (t *keptTestbed) serve(raw [][]meas.Measurement) { t.raw.Store(&raw) }

// coordinator returns the hierarchical coordinator's endpoint, bringing it
// up on first use.
func (t *keptTestbed) coordinator() (*medici.MWClient, error) {
	if t.coord == nil {
		c, err := medici.NewMWClient("coordinator", "127.0.0.1:0", t.tb.Registry, t.key.transport, medici.LengthPrefixProtocol{}, 256)
		if err != nil {
			return nil, err
		}
		t.coord = c
	}
	return t.coord, nil
}

// close brings the testbed down. Testbed.Close has every site hang up its
// links before any site closes its listener, and the coordinator's and the
// source's listeners close after that, so every link is closed from its
// dialing end (DESIGN §12).
func (t *keptTestbed) close() {
	t.tb.Close()
	if t.coord != nil {
		t.coord.Close()
	}
	t.source.Close()
}

// testbedFor returns the testbed of a run under key, locked for the run,
// and the release the run calls when it returns, saying whether it failed.
// That is the decomposition's kept testbed, brought up (and any testbed
// under another key closed) when the slot holds none under key. A run that
// finds the kept one busy, or whose transport cannot be compared, gets a
// private testbed that its release closes. A failed run's release closes
// the kept testbed too and empties the slot: its links may end in a
// half-written frame, so the next run starts from fresh ones.
func (d *Decomposition) testbedFor(key testbedKey) (*keptTestbed, func(failed bool), error) {
	private := func() (*keptTestbed, func(bool), error) {
		t, err := newKeptTestbed(key)
		if err != nil {
			return nil, nil, err
		}
		return t, func(bool) { t.close() }, nil
	}
	if !reflect.ValueOf(key.transport).Comparable() {
		return private()
	}
	d.testbedMu.Lock()
	t := d.testbed
	switch {
	case t != nil && t.key == key:
		if !t.mu.TryLock() {
			d.testbedMu.Unlock()
			return private()
		}
	default:
		d.dropTestbedLocked()
		var err error
		if t, err = newKeptTestbed(key); err != nil {
			d.testbedMu.Unlock()
			return nil, nil, err
		}
		t.mu.Lock()
		d.testbed = t
		// A decomposition dropped without Close takes its testbed down with
		// it. No run can hold an unreachable testbed; the lock orders the
		// close after the last run's use.
		runtime.SetFinalizer(t, func(t *keptTestbed) {
			if t.mu.TryLock() {
				t.close()
			}
		})
	}
	d.testbedMu.Unlock()
	return t, func(failed bool) { d.releaseTestbed(t, failed) }, nil
}

// releaseTestbed ends a run on the kept testbed t: it stays in the slot
// for the next run unless the run failed or the slot was emptied under it.
func (d *Decomposition) releaseTestbed(t *keptTestbed, failed bool) {
	t.raw.Store(nil)
	d.testbedMu.Lock()
	kept := d.testbed == t
	if kept && failed {
		d.testbed = nil
		runtime.SetFinalizer(t, nil)
	}
	d.testbedMu.Unlock()
	if kept && !failed {
		t.mu.Unlock()
		return
	}
	t.close()
}

// dropTestbedLocked empties the slot. The testbed in it closes now, or,
// when a run holds it, as that run returns.
func (d *Decomposition) dropTestbedLocked() {
	t := d.testbed
	if t == nil {
		return
	}
	d.testbed = nil
	runtime.SetFinalizer(t, nil)
	if t.mu.TryLock() {
		t.close()
	}
}

// Close releases the testbed the decomposition keeps between
// RunDistributed and RunHierarchical calls: every site hangs up its links,
// then the sites', the coordinator's and the data source's listeners close.
// A run still in flight keeps the testbed until it returns and closes it
// then. A later run brings a new testbed up, which wants a Close of its
// own; a decomposition dropped without one has its testbed closed when the
// garbage collector finds it unreachable.
func (d *Decomposition) Close() {
	d.testbedMu.Lock()
	d.dropTestbedLocked()
	d.testbedMu.Unlock()
}
