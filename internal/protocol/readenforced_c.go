package protocol

// readEnforcedVis implements Read-Enforced consistency: an update must be
// visible everywhere before it is read (Table 2). The protocol is the
// Linearizable one, but the client's write acknowledges as soon as the
// local update and the INV broadcast are out — reads enforce the rest
// (Figure 3a) — unless Strict persistency vetoes the early completion.
type readEnforcedVis struct{ strongVis }
