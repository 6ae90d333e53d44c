#!/bin/sh
# netlines.sh BASE prints the lines added and removed in non-test Go files
# outside perfbench/ between git revision BASE and the working tree,
# untracked files included. It prints two rows:
#   raw   every added and removed line;
#   code  the same without blank lines and // comment lines.
# A changed line counts once as added and once as removed. CHANGES.md
# reports a change's net lines with this script.
#
#   scripts/netlines.sh 7d53f22
set -eu

[ $# -eq 1 ] || { echo "usage: scripts/netlines.sh BASE" >&2; exit 2; }
base=$1
cd "$(git rev-parse --show-toplevel)"
git rev-parse --verify --quiet "$base^{commit}" >/dev/null || {
	echo "netlines: unknown revision $base" >&2
	exit 2
}

{
	git diff -U0 --no-color "$base" -- '*.go' ':(exclude)*_test.go' ':(exclude)perfbench'
	git ls-files --others --exclude-standard -- '*.go' ':(exclude)*_test.go' ':(exclude)perfbench' |
		while IFS= read -r f; do
			git diff -U0 --no-color --no-index /dev/null "$f" || true
		done
} | awk '
	/^--- (a\/|\/dev\/null)/ || /^\+\+\+ (b\/|\/dev\/null)/ { next }
	/^[+-]/ {
		sign = substr($0, 1, 1)
		body = substr($0, 2)
		gsub(/^[ \t]+|[ \t]+$/, "", body)
		raw[sign]++
		if (body != "" && body !~ /^\/\//) code[sign]++
	}
	function row(name, a, r) {
		printf "%-5s +%d -%d net %s%d\n", name, a, r, (a - r > 0 ? "+" : ""), a - r
	}
	END {
		row("raw", raw["+"] + 0, raw["-"] + 0)
		row("code", code["+"] + 0, code["-"] + 0)
	}'
