package emit

// The differential test lives in package emit_test, because it
// synthesizes through core, which imports emit.
var (
	RefVerilog          = refVerilog
	RefTestbench        = refTestbench
	CollisionProbe      = collisionProbe
	NamerCollisionGraph = namerCollisionGraph
)
