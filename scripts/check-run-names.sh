#!/usr/bin/env bash
# Checks that every `go test -run` and `-bench` pattern in the given files
# still names a test. `go test -run Typo` prints "no tests to run" and exits
# 0, so a renamed test would otherwise drop out of a gate without a sound.
#
# Usage: bash scripts/check-run-names.sh [file ...]
# (paths from the repo root; default: Makefile .github/workflows/ci.yml)
#
# Each `go test` line (Makefile `$(GO) test` lines too) is split into its
# package arguments and its -run / -bench patterns. A pattern is split into
# its alternatives: `^(A|B)$` into `^A$` and `^B$`, `A|B` into `A` and `B`.
# Each alternative must match at least one name that `go test -list` prints
# for the line's packages. Only the top-level part of a subtest pattern
# (before the first `/`) is checked. `^$` (run nothing) and `.` are skipped.
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -gt 0 ] || set -- Makefile .github/workflows/ci.yml

declare -A lists # package -> the names go test -list prints for it
fail=0
checked=0

names=
names_of() { # package arguments; sets names
	local pkg
	names=
	for pkg in $1; do
		if [ -z "${lists[$pkg]+set}" ]; then
			lists[$pkg]="$(go test -list '.*' "$pkg" | grep -Ev '^(ok|\?|FAIL)[[:space:]]' || true)"
		fi
		names+="${lists[$pkg]}"$'\n'
	done
}

check_pattern() { # file, package arguments, pattern
	local body=$3 pre= suf= alt
	local -a alts
	case $body in '^$' | '.' | '.*' | '') return ;; esac
	if [[ $body == '^('*')$' ]]; then
		body=${body:2:${#body}-4} pre='^' suf='$'
	fi
	IFS='|' read -ra alts <<<"$body"
	for alt in "${alts[@]}"; do check_alt "$1" "$2" "$pre${alt%%/*}$suf" "$3"; done
}

check_alt() { # file, package arguments, alternative, whole pattern
	checked=$((checked + 1))
	names_of "$2"
	if ! grep -Eq -- "$3" <<<"$names"; then
		echo "$1: '$3' (in '$4') names no test in $2" >&2
		fail=1
	fi
}

for file in "$@"; do
	while IFS= read -r line; do
		line=${line//'$(GO)'/go}
		line=${line//'$$'/'$'}
		line=${line#*go test }
		# Patterns: -run/-bench, '-quoted or bare, with a space or '='.
		pats=$(grep -oE -- "-(run|bench)[= ]('[^']*'|[^ ']+)" <<<"$line" |
			sed -E "s/^-(run|bench)[= ]//; s/^'(.*)'\$/\\1/")
		# Packages: the ./-rooted words before any pipe or redirect, with
		# quoted patterns and the values of file flags dropped.
		rest=$(sed -E "s/'[^']*'//g; s/[|>;)].*//; s/-(o|memprofile|cpuprofile|coverprofile) [^ ]+//g" <<<"$line")
		pkgs=
		for w in $rest; do
			[[ $w == . || $w == ./* ]] && pkgs+=${pkgs:+ }$w
		done
		: "${pkgs:=.}"
		while IFS= read -r pat; do
			[ -n "$pat" ] && check_pattern "$file" "$pkgs" "$pat"
		done <<<"$pats"
	done < <(grep -E '(\$\(GO\)|go) test .*-(run|bench)' "$file" | grep -Ev '^[[:space:]]*#')
done

if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "check-run-names: $checked alternatives, each names a test"
