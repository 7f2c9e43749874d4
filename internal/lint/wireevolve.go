package lint

// wireevolve: the protocol-evolution rules that let a message grow an
// optional field without breaking a peer that never sends it.
//
// Rule 1 (trailing optionals): an optional field group must be the last
// thing in its sequence. A decoder detects its absence from a short frame;
// an optional in the middle would shift every later field. A corollary:
// optionals inside a repeated element are never evolvable, because
// elements are concatenated — there is no per-element frame boundary to
// detect absence from.
//
// Rule 2 (Remaining guards): a decoder-side optional must be guarded by
// r.Remaining(), the only way to distinguish "field absent" from a
// truncated frame. Encoders gate on whether the field says anything (a
// zero TraceCtx or DelegCtx stays off the wire).

// WireEvolve checks protocol-evolution discipline.
var WireEvolve = &Analyzer{
	Name: "wireevolve",
	Doc:  "optional wire fields must be trailing and Remaining()-guarded",
	Run:  runWireEvolve,
}

func runWireEvolve(pass *Pass) error {
	for _, s := range ExtractPassSchemas(pass) {
		checkEvolveSeq(pass, s, s.Enc, false, false)
		checkEvolveSeq(pass, s, s.Dec, true, false)
	}
	return nil
}

// checkEvolveSeq enforces rules 1 and 2 over one extracted sequence.
func checkEvolveSeq(pass *Pass, s *MessageSchema, seq []WireOp, isDecoder, inLoop bool) {
	for i, op := range seq {
		switch op.Kind {
		case "opt":
			switch {
			case inLoop:
				pass.Reportf(op.Pos, "%s: optional field group inside a repeated element is not evolvable: concatenated elements leave no frame boundary to detect absence from", s.DisplayName())
			case i != len(seq)-1:
				pass.Reportf(op.Pos, "%s: optional field group is not trailing: required fields follow it, so a peer that omits it misparses the rest of the frame", s.DisplayName())
			}
			if isDecoder && !op.Guarded {
				pass.Reportf(op.Pos, "%s: decoder-side optional is not guarded by r.Remaining(): a short frame from an older peer must decode as \"field absent\", not as garbage or an error", s.DisplayName())
			}
			checkEvolveSeq(pass, s, op.Body, isDecoder, inLoop)
		case "loop":
			checkEvolveSeq(pass, s, op.Body, isDecoder, true)
		}
	}
}
