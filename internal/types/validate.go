package types

import "fmt"

// ValidateTxn checks the structural invariants every transaction must
// satisfy before it enters the engine:
//
//   - at least one operation;
//   - all operations carry the transaction's ID and timestamp, with Idx
//     equal to their position;
//   - no two operations of the transaction target the same key (a single
//     event never reads and writes a record twice at one timestamp);
//   - no operation lists its own key among its deps;
//   - dep arity matches the function's declared NumDeps.
//
// Applications are exercised against ValidateTxn in tests; the engine also
// validates in debug builds of the pipeline.
func ValidateTxn(t *Txn) error {
	if len(t.Ops) == 0 {
		return fmt.Errorf("txn %d: no operations", t.ID)
	}
	if t.ID != t.TS {
		return fmt.Errorf("txn %d: ID and TS differ (%d != %d)", t.ID, t.ID, t.TS)
	}
	seen := make(map[Key]struct{}, len(t.Ops))
	for i := range t.Ops {
		op := &t.Ops[i]
		if op.TxnID != t.ID || op.TS != t.TS {
			return fmt.Errorf("txn %d op %d: wrong txn id/ts (%d/%d)", t.ID, i, op.TxnID, op.TS)
		}
		if int(op.Idx) != i {
			return fmt.Errorf("txn %d op %d: Idx %d out of order", t.ID, i, op.Idx)
		}
		if _, dup := seen[op.Key]; dup {
			return fmt.Errorf("txn %d op %d: duplicate key %v within txn", t.ID, i, op.Key)
		}
		seen[op.Key] = struct{}{}
		if op.Fn >= FuncID(NumFuncs) {
			return fmt.Errorf("txn %d op %d: unknown func %d", t.ID, i, op.Fn)
		}
		if want := op.Fn.NumDeps(); want >= 0 && len(op.Deps) != want {
			return fmt.Errorf("txn %d op %d: func %v wants %d deps, has %d",
				t.ID, i, op.Fn, want, len(op.Deps))
		}
		for _, d := range op.Deps {
			if d == op.Key {
				return fmt.Errorf("txn %d op %d: self-dependency on %v", t.ID, i, op.Key)
			}
		}
	}
	return nil
}
