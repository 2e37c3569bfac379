package topk

import (
	"kspot/internal/engine"
	"kspot/internal/model"
	"kspot/internal/radio"
)

// Sweep runs one TAG-style leaf-to-root acquisition sweep on the given
// substrate — see engine.Transport.Sweep for the contract. It exists so
// operator code reads symmetrically with InstallQuery and SenseEpoch; the
// actual execution (the post-order walk, or its level-synchronous form on
// a worker pool) belongs to the transport.
func Sweep(t engine.Transport, e model.Epoch, kind radio.MsgKind,
	readings map[model.NodeID]model.Reading,
	prune func(node model.NodeID, v *model.View) *model.View) *model.View {
	return t.Sweep(e, kind, readings, prune)
}
