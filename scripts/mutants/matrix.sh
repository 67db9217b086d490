#!/usr/bin/env bash
# Full kill matrix for the catalogued mutants.
#
# Where run.sh runs only each mutant's named `# killer:` tests, this
# script runs the whole workspace suite (`cargo test --workspace
# --no-fail-fast`) once unmutated and once per scripts/mutants/*.patch,
# on the same scratch copy of the working tree run.sh uses, and prints
# every test each mutant fails. It exits 1 if any mutant fails no test,
# and 2 if the unmutated copy already fails one or a copy (unmutated or
# mutated) does not build: a mutant that was never run is not killed. It runs the whole suite
# once per mutant, so verify.sh does not call it.
#
#   bash scripts/mutants/matrix.sh
set -euo pipefail
repo="$(cd "$(dirname "$0")/../.." && pwd)"
work="${TMPDIR:-/tmp}/wsp-mutants"
src="$work/src"
log="$work/matrix.log"
export CARGO_TARGET_DIR="$work/target"

rm -rf "$src"
mkdir -p "$src"
: > "$log"
(cd "$repo" && git ls-files -z --cached --others --exclude-standard \
    | tar --null --ignore-failed-read -T - -cf -) | tar -xf - -C "$src"

patches=("$repo"/scripts/mutants/*.patch)
# Same timestamp rule as run.sh: files a patch touches are newer than any
# earlier build of a mutated version of them.
for p in "${patches[@]}"; do
    grep '^+++ b/' "$p" | sed 's|^+++ b/||' | while read -r f; do touch "$src/$f"; done
done

# Builds every test target in the copy; on failure names `$1` and exits 2.
build_or_die() {
    (cd "$src" && cargo test --offline --workspace --no-run >> "$log" 2>&1) || {
        echo "mutants: build failed for $1 (see $log)" >&2
        exit 2
    }
}

# Runs the whole suite in the copy and prints one failing test per line,
# as `<test target>: <test name>`.
failing_tests() {
    (cd "$src" && cargo test --offline --workspace --no-fail-fast 2>&1 || true) \
        | tee -a "$log" | awk '
        /^ +Running / {
            target = $2
            if (target == "unittests") {
                crate = $NF; sub(/^.*\//, "", crate); sub(/-[0-9a-f]+\)$/, "", crate)
                target = crate " " $3
            }
        }
        /^ +Doc-tests / { target = "doc " $2 }
        /^test .* \.\.\. FAILED$/ { sub(/^test /, ""); sub(/ \.\.\. FAILED$/, ""); print target ": " $0 }
    '
}

echo "-- unmutated: the whole suite must pass"
build_or_die "the unmutated copy"
baseline="$(failing_tests)"
if [ -n "$baseline" ]; then
    echo "mutants: the unmutated copy fails (see $log):" >&2
    echo "$baseline" >&2
    exit 2
fi

survivors=0
for p in "${patches[@]}"; do
    mutant="$(basename "$p" .patch)"
    (cd "$src" && patch -s -p1 < "$p")
    build_or_die "$mutant"
    failed="$(failing_tests)"
    (cd "$src" && patch -s -R -p1 < "$p")
    count=0
    [ -n "$failed" ] && count="$(printf '%s\n' "$failed" | wc -l)"
    printf '%-40s fails %s test(s)\n' "$mutant" "$count"
    [ -n "$failed" ] && printf '%s\n' "$failed" | sed 's/^/    /'
    if [ "$count" -eq 0 ]; then
        echo "mutants: $mutant fails no test: $(sed -n 's/^# reason: //p' "$p")" >&2
        survivors=$((survivors + 1))
    fi
done

if [ "$survivors" -ne 0 ]; then
    echo "mutants: $survivors mutant(s) fail no test" >&2
    exit 1
fi
echo "mutants: all ${#patches[@]} mutants fail at least one test"
