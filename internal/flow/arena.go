package flow

// Arenas, NewArenas and UseArenas survive only because the benchmark's
// step-loop mirror (perfbench/steploop.go) calls them and must build
// unchanged. Envelope reuse is owned by the par.World now (see faceEnv,
// pipeEnv), so they do nothing.
//
// Deprecated: no-ops; remove with their last caller.
type Arenas struct{}

// Deprecated: see Arenas.
func NewArenas(int) *Arenas { return nil }

// Deprecated: see Arenas.
func (b *Block) UseArenas(*Arenas) {}
