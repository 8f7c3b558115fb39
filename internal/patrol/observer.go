package patrol

import "tctp/internal/geom"

// Observer receives simulation events. The built-in metrics recorder,
// the energy audit and the wsn data-collection overlay all implement
// it, so a run composes any number of them as peers:
// every observer sees every event, in registration order, with the
// built-in recorder always first.
type Observer interface {
	// OnVisit fires when a mule arrives at a target waypoint.
	OnVisit(muleID, targetID int, t float64)
	// OnDeath fires when a mule's battery empties.
	OnDeath(muleID int, t float64, pos geom.Point)
	// OnRecharge fires after a recharge-station stop completes.
	OnRecharge(muleID int, t float64)
}

// ObserverFuncs adapts individual callbacks to Observer; any field may
// be nil.
type ObserverFuncs struct {
	Visit    func(muleID, targetID int, t float64)
	Death    func(muleID int, t float64, pos geom.Point)
	Recharge func(muleID int, t float64)
}

// OnVisit implements Observer.
func (f ObserverFuncs) OnVisit(muleID, targetID int, t float64) {
	if f.Visit != nil {
		f.Visit(muleID, targetID, t)
	}
}

// OnDeath implements Observer.
func (f ObserverFuncs) OnDeath(muleID int, t float64, pos geom.Point) {
	if f.Death != nil {
		f.Death(muleID, t, pos)
	}
}

// OnRecharge implements Observer.
func (f ObserverFuncs) OnRecharge(muleID int, t float64) {
	if f.Recharge != nil {
		f.Recharge(muleID, t)
	}
}

// multiObserver dispatches every event to each observer in order.
type multiObserver []Observer

func (m multiObserver) OnVisit(muleID, targetID int, t float64) {
	for _, o := range m {
		o.OnVisit(muleID, targetID, t)
	}
}

func (m multiObserver) OnDeath(muleID int, t float64, pos geom.Point) {
	for _, o := range m {
		o.OnDeath(muleID, t, pos)
	}
}

func (m multiObserver) OnRecharge(muleID int, t float64) {
	for _, o := range m {
		o.OnRecharge(muleID, t)
	}
}
