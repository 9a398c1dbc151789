#!/usr/bin/env sh
# identity.sh — prove the working tree's experiment output is byte-identical
# to another commit's.
#
#   scripts/identity.sh <ref>        # e.g. scripts/identity.sh HEAD~1
#
# Checks out <ref> into a temporary directory (git archive: nothing is left
# in .git), builds cmd/tfcsim from both trees, runs `tfcsim all` at quick
# scale on each at `-j 1`, at `-j 8`, and at
# `-j 2 -spans 2 -watchdogs -flightdir -` (packet spans in the trace,
# watchdogs and flight ring armed) with text, CSV, trace and metrics
# export, blanks the two run-dependent fields of the text (the header's j=
# and the footer's wall seconds; trial and sim-event counts stay in the
# comparison), and cmp's every file. Last it runs `tfcsim verify` on both
# trees and cmp's the two claim reports, evidence numbers included.
# Byte-identity to the parent is the repository's fixed point: a refactor
# passes this before anything else is worth measuring. (That the sharded
# engine reproduces the sequential one is internal/exp's Sharded tests'
# job: the CLI runs every trial on the sequential engine.)
set -eu
cd "$(dirname "$0")/.."

ref="${1:?usage: scripts/identity.sh <ref>}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "==> build $ref and the working tree"
mkdir "$tmp/src"
git archive "$ref" | tar -x -C "$tmp/src"
(cd "$tmp/src" && go build -o "$tmp/tfcsim.ref" ./cmd/tfcsim)
go build -o "$tmp/tfcsim.new" ./cmd/tfcsim

run() { # run <binary> <outdir> <j> [observatory flags...]
	bin="$1" out="$2" j="$3"
	shift 3
	mkdir -p "$out/csv"
	"$bin" all -j "$j" -out "$out/out.txt" -csv "$out/csv" \
		-trace "$out/trace.json" -metrics "$out/metrics.json" "$@" >/dev/null 2>"$tmp/stderr.log" ||
		{ cat "$tmp/stderr.log" >&2; exit 1; }
	sed -e 's/, j=[0-9]*) ==$/, j=N) ==/' -e 's/, [0-9.]*s wall --$/, Ns wall --/' \
		"$out/out.txt" >"$out/text"
	rm "$out/out.txt"
}

for j in 1 8; do
	echo "==> tfcsim all -j $j ($ref, then working tree)"
	run "$tmp/tfcsim.ref" "$tmp/ref-$j" "$j"
	run "$tmp/tfcsim.new" "$tmp/new-$j" "$j"
done

# The observatory configuration: spans add events to the trace (and to the
# metrics file's trace-event counts), so it is its own comparison (ref
# against tree); its text and CSV must also equal the plain runs'.
obs="-spans 2 -watchdogs -flightdir -"
echo "==> tfcsim all -j 2 $obs ($ref, then working tree)"
run "$tmp/tfcsim.ref" "$tmp/ref-obs" 2 $obs
run "$tmp/tfcsim.new" "$tmp/new-obs" 2 $obs

# Every file of every plain run against the reference's serial run: that
# one comparison covers ref-vs-tree and -j invariance at once.
base="$tmp/ref-1"
fail=0
for d in "$tmp/ref-8" "$tmp/new-1" "$tmp/new-8"; do
	diff -rq "$base" "$d" >&2 || fail=1
done
diff -rq "$tmp/ref-obs" "$tmp/new-obs" >&2 || fail=1
diff -rq -x '*.json' "$base" "$tmp/new-obs" >&2 || fail=1

# The claims: `tfcsim verify` exits 1 when a claim fails, which the report
# comparison covers, so its status is not checked.
echo "==> tfcsim verify ($ref, then working tree)"
"$tmp/tfcsim.ref" verify >"$tmp/verify.ref" 2>&1 || true
"$tmp/tfcsim.new" verify >"$tmp/verify.new" 2>&1 || true
cmp "$tmp/verify.ref" "$tmp/verify.new" >&2 || fail=1
[ "$fail" = 0 ] || exit 1
echo "byte-identical to $ref: text, CSV, trace, metrics at -j1 and -j8, with spans+watchdogs at -j2, and the verify report"
