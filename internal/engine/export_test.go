package engine

// MaxPending exposes the seat buffer's bound to the external tests.
const MaxPending = maxPending
