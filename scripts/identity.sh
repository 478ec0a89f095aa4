#!/bin/sh
# identity.sh BASE — byte-identity check of the working tree against
# revision BASE (run from the repository root; `make identity BASE=rev`).
#
# It builds cmd/dejavu and cmd/dvexp from an export of BASE and from the
# working tree, runs each side in its own tree over the forms below, and
# compares stdout, stderr and exit status:
#   chaos -seed s -v -json, chaos -seed s -ticks 40 -v -json and
#   chaos -switches 3 -seed s -v -json for s in SEEDS (default 1..25),
#   each with and without -config configs/edgecloud.json;
#   run, plan, lint, emit and top, with and without that -config;
#   apply -dry-run to examples/intent/intent.json and to the CLI golden
#   fixture that adds chain 40, each from that -config and from the
#   fixture without chain 40 (the document form of the reference
#   scenario);
#   apply -dry-run, in text and -json, from the 3-switch fabric fixture
#   to the one that pins fw to switch 2;
#   dvexp.
# It prints every form that differs and exits 1 if any does.
set -eu

base=${1:?usage: scripts/identity.sh BASE}
seeds=${SEEDS:-$(seq 1 25)}
config=configs/edgecloud.json
# The working tree's copies of the fixtures, so a BASE older than them
# reads the same documents.
add40=$(pwd)/cmd/dejavu/testdata/intent_add40.json
from40=$(pwd)/cmd/dejavu/testdata/intent_add40_from.json
fabric=$(pwd)/cmd/dejavu/testdata/intent_fabric.json
fabricpin=$(pwd)/cmd/dejavu/testdata/intent_fabric_pin.json
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/base/tree" "$tmp/new"
git archive "$(git rev-parse --verify "$base^{commit}")" | tar -x -C "$tmp/base/tree"
(cd "$tmp/base/tree" && go build -o "$tmp/base/dejavu" ./cmd/dejavu && go build -o "$tmp/base/dvexp" ./cmd/dvexp)
go build -o "$tmp/new/dejavu" ./cmd/dejavu
go build -o "$tmp/new/dvexp" ./cmd/dvexp

# forms prints one command line per line: the binary's name, then its
# arguments.
forms() {
	for s in $seeds; do
		for cfg in "" "-config $config"; do
			echo "dejavu $cfg chaos -seed $s -v -json"
			echo "dejavu $cfg chaos -seed $s -ticks 40 -v -json"
			echo "dejavu $cfg chaos -switches 3 -seed $s -v -json"
		done
	done
	for cmd in run plan lint emit top; do
		echo "dejavu $cmd"
		echo "dejavu -config $config $cmd"
	done
	for to in examples/intent/intent.json "$add40"; do
		echo "dejavu apply -from $from40 -f $to -dry-run"
		echo "dejavu apply -from $config -f $to -dry-run"
	done
	echo "dejavu apply -from $fabric -f $fabricpin -dry-run"
	echo "dejavu apply -from $fabric -f $fabricpin -dry-run -json"
	echo "dvexp"
}

# runform SIDE N BIN ARGS... runs one form in SIDE's tree and keeps its
# stdout, stderr and exit status under $tmp/SIDE/N.
runform() {
	side=$1 n=$2 bin=$3
	shift 3
	dir=.
	[ "$side" = base ] && dir=$tmp/base/tree
	rc=0
	(cd "$dir" && "$tmp/$side/$bin" "$@") </dev/null >"$tmp/$side/$n.out" 2>"$tmp/$side/$n.err" || rc=$?
	echo "$rc" >"$tmp/$side/$n.rc"
}

n=0 differ=0
forms >"$tmp/forms"
while read -r bin args; do
	n=$((n + 1))
	# shellcheck disable=SC2086 # args is a word list on purpose
	runform base $n "$bin" $args
	# shellcheck disable=SC2086
	runform new $n "$bin" $args
	for f in out err rc; do
		if ! cmp -s "$tmp/base/$n.$f" "$tmp/new/$n.$f"; then
			echo "identity: $bin${args:+ $args}: $f differs"
			differ=$((differ + 1))
		fi
	done
done <"$tmp/forms"

if [ "$differ" -ne 0 ]; then
	echo "identity: $differ difference(s) over $n forms against $base"
	exit 1
fi
echo "identity: $n forms byte-identical to $base (stdout, stderr, exit status)"
