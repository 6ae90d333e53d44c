// Package launch implements the SmartLaunch workflow of Sec 5: the
// automated pipeline that brings a newly integrated carrier on air.
//
// Per carrier the workflow runs: pre-checks (the carrier must exist in the
// EMS and be locked), Auric recommendation, controller diff against the
// vendor-generated configuration, change push while the carrier is still
// locked, unlock, and post-checks. Carriers that engineers prematurely
// unlock through off-band interfaces are skipped without configuration
// (avoiding service disruption), and EMS execution-queue timeouts abandon
// the push — the two fall-out classes of Table 5.
package launch

import (
	"fmt"

	"auric/internal/controller"
	"auric/internal/core"
	"auric/internal/ems"
	"auric/internal/lte"
)

// Record is the audit trail of one carrier launch.
type Record struct {
	Carrier lte.CarrierID
	// PrecheckOK: the carrier was present and locked before configuration.
	PrecheckOK bool
	// Planned is the number of configuration changes the controller
	// planned after diffing Auric against the vendor configuration.
	Planned int
	// Pushed is how many of them reached the base station.
	Pushed int
	// Outcome classifies the push.
	Outcome controller.Outcome
	// Unlocked: the carrier went on air at the end of the workflow.
	Unlocked bool
	// PostcheckOK: the read-back verification after unlock succeeded.
	PostcheckOK bool
}

// Fallout reports whether the launch failed to implement planned changes.
func (r Record) Fallout() bool {
	return r.Planned > 0 && (r.Outcome != controller.Applied || r.Pushed < r.Planned)
}

// Workflow wires the launch pipeline together.
type Workflow struct {
	Engine *core.Engine
	Ctrl   *controller.Controller
	Client *ems.Client
}

// Launch runs the SmartLaunch pipeline for one new carrier. neighbors
// lists its X2 neighbor carriers for pair-wise configuration (may be nil).
// The carrier must already be integrated in the EMS (vendor configuration
// loaded, locked).
func (w *Workflow) Launch(c *lte.Carrier, neighbors []lte.CarrierID) (Record, error) {
	rec := Record{Carrier: c.ID}

	// Pre-checks: the carrier must be reachable and locked.
	locked, err := w.Client.State(c.ID)
	if err != nil {
		return rec, fmt.Errorf("launch: precheck: %w", err)
	}
	rec.PrecheckOK = locked

	// Recommend and diff regardless of lock state: the plan is still
	// reported to engineers even when the push is skipped.
	recs, err := w.Engine.Recommend(c, neighbors)
	if err != nil {
		return rec, fmt.Errorf("launch: recommend: %w", err)
	}
	changes, err := w.Ctrl.Plan(c.ID, recs)
	if err != nil {
		return rec, fmt.Errorf("launch: plan: %w", err)
	}
	rec.Planned = len(changes)

	if rec.PrecheckOK && len(changes) > 0 {
		pushed, outcome, err := w.Ctrl.Apply(c.ID, changes)
		rec.Pushed = pushed
		rec.Outcome = outcome
		if err != nil {
			return rec, fmt.Errorf("launch: apply: %w", err)
		}
	} else if !rec.PrecheckOK {
		rec.Outcome = controller.SkippedUnlocked
	}

	// Unlock: the carrier goes on air whether or not changes applied
	// (a prematurely unlocked carrier already is).
	if err := w.Client.Unlock(c.ID); err != nil {
		return rec, fmt.Errorf("launch: unlock: %w", err)
	}
	rec.Unlocked = true

	// Post-check: read back the first pushed change, if any.
	rec.PostcheckOK = true
	if rec.Pushed > 0 {
		ch := changes[0]
		var got float64
		var err error
		if ch.Neighbor < 0 {
			got, err = w.Client.Get(c.ID, ch.Param)
		} else {
			got, err = w.Client.GetRel(c.ID, ch.Neighbor, ch.Param)
		}
		if err != nil || got != ch.To {
			rec.PostcheckOK = false
		}
	}

	return rec, nil
}
