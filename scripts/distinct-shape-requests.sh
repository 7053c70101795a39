#!/bin/sh
# Prints 60 lll-serve DIMACS requests over 30 distinct dependency
# graphs, each shape requested twice in a row (so two workers can miss
# on the same shape at once), to stdout. Every formula has width-5
# clauses with positive literals; shapes are relabeled by placing the
# clause of node i at position a*i mod n, a coprime to n:
#   - 10 rank-3 rings (variable i+1 in clauses i, i+1, i+2 — each
#     clause meets four others), n in {32, 64}, a in {1,3,5,7,9};
#   - 10 rank-2 rings (one variable per ring edge), same n and a;
#   - 10 rank-2 tori (one variable per torus edge), 6x6 with
#     a in {1,5,7,11,13} and 8x8 with a in {1,3,5,7,9}.
# The serve smoke in ci.sh checks that the daemon computes exactly 30
# schedules for them.
#
# Usage: scripts/distinct-shape-requests.sh > requests.jsonl
exec awk 'BEGIN {
  split("1 3 5 7 9", A, " ")
  split("1 5 7 11 13", B, " ")
  for (s = 1; s <= 2; s++) for (k = 1; k <= 5; k++) ring3(32 * s, A[k])
  for (s = 1; s <= 2; s++) for (k = 1; k <= 5; k++) { ring_edges(32 * s); graph2(32 * s, A[k]) }
  for (k = 1; k <= 5; k++) { torus_edges(6, 6); graph2(36, B[k]) }
  for (k = 1; k <= 5; k++) { torus_edges(8, 8); graph2(64, A[k]) }
}
function emit(num_vars, n,    p, text, r) {
  text = "p cnf " num_vars " " n "\\n"
  for (p = 0; p < n; p++) text = text C[p] "0\\n"
  for (r = 0; r < 2; r++) printf "{\"id\":%d,\"dimacs\":\"%s\"}\n", ++id, text
}
function ring3(n, a,    i) {
  split("", C)
  for (i = 0; i < n; i++)
    C[(a * i) % n] = (i + 1) " " ((i + n - 1) % n + 1) " " ((i + n - 2) % n + 1) \
      " " (n + 2 * i + 1) " " (n + 2 * i + 2) " "
  emit(3 * n, n)
}
function ring_edges(n,    i) {
  M = 0
  for (i = 0; i < n; i++) { M++; U[M] = i; V[M] = (i + 1) % n }
}
function torus_edges(w, h,    x, y) {
  M = 0
  for (y = 0; y < h; y++) for (x = 0; x < w; x++) {
    M++; U[M] = y * w + x; V[M] = y * w + (x + 1) % w
    M++; U[M] = y * w + x; V[M] = ((y + 1) % h) * w + x
  }
}
function graph2(n, a,    v, e, deg, vars, privates) {
  split("", C); split("", deg)
  for (v = 0; v < n; v++) C[v] = ""
  for (e = 1; e <= M; e++) {
    C[U[e]] = C[U[e]] e " "; deg[U[e]]++
    C[V[e]] = C[V[e]] e " "; deg[V[e]]++
  }
  vars = M
  for (v = 0; v < n; v++) {
    privates = ""
    while (deg[v] < 5) { vars++; privates = privates vars " "; deg[v]++ }
    clause[(a * v) % n] = C[v] privates
  }
  for (v = 0; v < n; v++) C[v] = clause[v]
  emit(vars, n)
}'
