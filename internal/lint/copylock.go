package lint

import (
	"go/ast"
	"go/types"
)

// MutexByValue reports functions that declare a result by value whose type
// (transitively) contains a sync.Mutex/RWMutex/WaitGroup/Once/Cond/Map/Pool
// or a sync/atomic value type. Every caller then receives a copy: a copied
// RWMutex forks the lock and a copied atomic forks the counter, and both
// fail silently.
//
// It covers only what `go vet`'s copylocks pass (run first by `make check`
// and `make race`) misses: vet flags by-value receivers and parameters,
// copying assignments, range clauses and call arguments, but accepts a
// by-value result declaration whose body returns a fresh composite literal.
var MutexByValue = &Analyzer{
	Name: "mutexbyvalue",
	Doc:  "no results declared by value containing sync or sync/atomic state",
	Run:  runMutexByValue,
}

func runMutexByValue(pass *Pass) {
	info := pass.Pkg.Info
	if info == nil {
		return
	}
	seen := map[types.Type]string{}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var ft *ast.FuncType
			switch n := n.(type) {
			case *ast.FuncDecl:
				ft = n.Type
			case *ast.FuncLit:
				ft = n.Type
			}
			if ft == nil || ft.Results == nil {
				return true
			}
			for _, field := range ft.Results.List {
				tv, ok := info.Types[field.Type]
				if !ok || tv.Type == nil {
					continue
				}
				if lock := lockIn(seen, tv.Type); lock != "" {
					pass.Reportf(field.Type.Pos(), "result passes a lock by value: %s", describeLock(tv.Type, lock))
				}
			}
			return true
		})
	}
}

func describeLock(t types.Type, lock string) string {
	if t.String() == lock {
		return lock + " must not be copied"
	}
	return t.String() + " contains " + lock
}

// lockIn returns the description of a lock type contained (transitively, by
// value) in t, or "". seen memoizes per type ("" = none) and breaks
// recursive types.
func lockIn(seen map[types.Type]string, t types.Type) string {
	if d, ok := seen[t]; ok {
		return d
	}
	seen[t] = "" // overwritten below
	var d string
	switch t := t.(type) {
	case *types.Named:
		if isLockType(t) {
			d = t.String()
		} else {
			d = lockIn(seen, t.Underlying())
		}
	case *types.Alias:
		d = lockIn(seen, types.Unalias(t))
	case *types.Struct:
		for i := 0; i < t.NumFields() && d == ""; i++ {
			d = lockIn(seen, t.Field(i).Type())
		}
	case *types.Array:
		d = lockIn(seen, t.Elem())
	}
	seen[t] = d
	return d
}

// syncLockTypes are the by-value-uncopyable types of package sync;
// everything in sync/atomic counts.
var syncLockTypes = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true,
	"Cond": true, "Once": true, "Map": true, "Pool": true,
}

func isLockType(named *types.Named) bool {
	obj := named.Obj()
	pkg := obj.Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "sync":
		return syncLockTypes[obj.Name()]
	case "sync/atomic":
		return true
	}
	return false
}
