package engine

import (
	"context"

	"kspot/internal/sim"
)

// Live, LiveOptions, NewLive, Start and Stop: named by frozen benchmark/;
// delete them with the next benchmark PR. Every *sim.Network is safe for
// concurrent use, so Live is the network itself and its lifecycle does
// nothing.
type (
	Live        struct{ *sim.Network }
	LiveOptions struct{ Window int } // accepted and ignored
)

func NewLive(net *sim.Network, _ LiveOptions) *Live { return &Live{net} }
func (*Live) Start(context.Context)                 {}
func (*Live) Stop()                                 {}
