package serve

import (
	"context"
	"fmt"
	"go/ast"
	"net/http"
	"strings"
	"testing"

	"sqpr/internal/analysis/anz"
	"sqpr/internal/plan"
	"sqpr/internal/wal"
)

// TestStatusForIsExhaustive statically checks that every exported Err*
// sentinel of the plan and wal packages is handled in statusFor: a new
// sentinel added to either package without an HTTP mapping would
// otherwise surface to clients as a generic 500 and to this test as a
// missing name. The check reads the type-checked AST rather than a
// hand-maintained list, so it cannot go stale.
func TestStatusForIsExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks three packages")
	}
	pkgs, err := anz.Load("../..", "sqpr/internal/plan", "sqpr/internal/wal", "sqpr/internal/serve")
	if err != nil {
		t.Fatalf("loading packages: %v", err)
	}
	byPath := make(map[string]*anz.Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.PkgPath] = p
	}

	// Every exported package-level `var Err... error` in plan and wal.
	want := make(map[string]bool)
	for _, path := range []string{"sqpr/internal/plan", "sqpr/internal/wal"} {
		p := byPath[path]
		if p == nil {
			t.Fatalf("package %s not loaded", path)
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			if !strings.HasPrefix(name, "Err") || !ast.IsExported(name) {
				continue
			}
			obj := scope.Lookup(name)
			if obj.Type().String() != "error" {
				continue
			}
			want[p.Types.Name()+"."+name] = true
		}
	}
	if len(want) < 5 {
		t.Fatalf("found only %d sentinels (%v); enumeration is broken", len(want), keys(want))
	}

	// Every pkg.ErrX mentioned inside statusFor.
	handled := make(map[string]bool)
	srv := byPath["sqpr/internal/serve"]
	for _, file := range srv.Syntax {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "statusFor" {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); ok && strings.HasPrefix(sel.Sel.Name, "Err") {
					handled[id.Name+"."+sel.Sel.Name] = true
				}
				return true
			})
		}
	}
	if len(handled) == 0 {
		t.Fatal("statusFor not found in serve package")
	}

	for name := range want {
		if !handled[name] {
			t.Errorf("sentinel %s has no case in statusFor: clients would see a generic 500", name)
		}
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestStatusForMappings spot-checks the runtime behaviour, wrapped the way
// handlers actually surface errors.
func TestStatusForMappings(t *testing.T) {
	cases := []struct {
		err  error
		code int
	}{
		{fmt.Errorf("submit: %w", plan.ErrQueueFull), http.StatusTooManyRequests},
		{fmt.Errorf("journal: %w", plan.ErrWALFailed), http.StatusServiceUnavailable},
		{fmt.Errorf("replay: %w", wal.ErrCorrupt), http.StatusServiceUnavailable},
		{fmt.Errorf("append: %w", wal.ErrClosed), http.StatusServiceUnavailable},
		{fmt.Errorf("lookup: %w", plan.ErrUnknownStream), http.StatusBadRequest},
		{fmt.Errorf("repair: %w", plan.ErrInvalidEvent), http.StatusBadRequest},
		{fmt.Errorf("remove: %w", plan.ErrNotAdmitted), http.StatusNotFound},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{fmt.Errorf("boom"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got := statusFor(tc.err); got != tc.code {
			t.Errorf("statusFor(%v) = %d, want %d", tc.err, got, tc.code)
		}
	}
}
