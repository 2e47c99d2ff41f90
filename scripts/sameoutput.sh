#!/usr/bin/env bash
# Checks that the working tree produces byte-identical output to <rev>:
#
#   scripts/sameoutput.sh <rev>        e.g. scripts/sameoutput.sh HEAD~
#
# It builds gnnlab-bench and gnnlab-train at <rev> in a temporary git
# worktree (removed on exit) and from the working tree, then cmps:
#   - the all-experiments CSV at -scale 16 -gpus 4 -epochs 2, at
#     -workers 1, at the default pool size and with -nostore;
#   - the checkpoints and epoch lines of three gnnlab-train runs (inline
#     1 trainer; inline 4 trainers with a cache; 2 samplers / 2 trainers
#     with a cache).
# The measurement-store line each CSV run prints to stderr is shown for
# both builds; its counts may differ legitimately.
#
# Not a CI gate: a change that means to alter results fails it by design.
set -euo pipefail
if [ $# -ne 1 ]; then
	echo "usage: $0 <rev>" >&2
	exit 2
fi
cd "$(dirname "$0")/.."
rev="$(git rev-parse --verify "$1^{commit}")"
tmp="$(mktemp -d)"
cleanup() {
	git worktree remove --force "$tmp/src" 2>/dev/null || true
	git worktree prune
	rm -rf "$tmp"
}
trap cleanup EXIT

git worktree add --detach --quiet "$tmp/src" "$rev"
for side in base work; do
	mkdir -p "$tmp/$side"
done
(cd "$tmp/src" && go build -o "$tmp/base/" ./cmd/gnnlab-bench ./cmd/gnnlab-train)
go build -o "$tmp/work/" ./cmd/gnnlab-bench ./cmd/gnnlab-train

status=0
compare() { # compare <file> <what>
	if cmp -s "$tmp/base/$1" "$tmp/work/$1"; then
		echo "same:    $2"
	else
		echo "DIFFERS: $2"
		status=1
	fi
}

csv=(-scale 16 -gpus 4 -epochs 2 -format csv)
for mode in "w1:-workers 1" "default:" "nostore:-nostore"; do
	name="${mode%%:*}"
	read -r -a extra <<<"${mode#*:}"
	for side in base work; do
		"$tmp/$side/gnnlab-bench" "${csv[@]}" ${extra[@]+"${extra[@]}"} \
			>"$tmp/$side/csv-$name.txt" 2>"$tmp/$side/csv-$name.err"
		echo "  $side $name: $(grep 'measurement store' "$tmp/$side/csv-$name.err" || echo 'no store line')"
	done
	compare "csv-$name.txt" "all-experiments CSV ($name)"
done

train=(-seed 42 -epochs 3 -target 2)
configs=("1:-samplers 0 -trainers 1" "2:-samplers 0 -trainers 4 -cache 0.05" "3:-samplers 2 -trainers 2 -cache 0.05")
for cfg in "${configs[@]}"; do
	name="${cfg%%:*}"
	read -r -a extra <<<"${cfg#*:}"
	for side in base work; do
		"$tmp/$side/gnnlab-train" "${train[@]}" "${extra[@]}" -checkpoint "$tmp/$side/ck$name.bin" \
			| grep '^epoch' >"$tmp/$side/train$name.txt"
	done
	compare "ck$name.bin" "gnnlab-train checkpoint (${cfg#*:})"
	compare "train$name.txt" "gnnlab-train epoch lines (${cfg#*:})"
done
exit $status
