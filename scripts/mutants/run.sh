#!/usr/bin/env bash
# Mutation-adequacy gate for the crash sweeps.
#
# Each scripts/mutants/*.patch is one hand-written ordering bug against
# the persistence protocols. Its header holds one `# reason:` line (what
# the misordering breaks) and one or more `# killer:` lines, each
# `<cargo test target selectors> <exact test name>`, naming a test that
# must fail with the patch applied.
#
# The script copies the working tree (tracked files plus untracked ones
# not ignored) to a scratch directory under $TMPDIR, checks that every
# killer passes there unmutated, then applies each patch in turn, runs
# only its killers, and reverts it. It prints the mutant x killer
# matrix and exits non-zero if any mutant survives all of its killers.
# Build products stay in $TMPDIR/wsp-mutants/target between runs.
#
#   bash scripts/mutants/run.sh
set -euo pipefail
repo="$(cd "$(dirname "$0")/../.." && pwd)"
work="${TMPDIR:-/tmp}/wsp-mutants"
src="$work/src"
log="$work/last-run.log"
export CARGO_TARGET_DIR="$work/target"

rm -rf "$src"
mkdir -p "$src"
: > "$log"
(cd "$repo" && git ls-files -z --cached --others --exclude-standard \
    | tar --null --ignore-failed-read -T - -cf -) | tar -xf - -C "$src"

patches=("$repo"/scripts/mutants/*.patch)
# The copy keeps the working tree's timestamps, so cargo reuses earlier
# builds; every file a patch touches is made newer than any build of a
# mutated version of it.
for p in "${patches[@]}"; do
    grep '^+++ b/' "$p" | sed 's|^+++ b/||' | while read -r f; do touch "$src/$f"; done
done

killers_of() { sed -n 's/^# killer: //p' "$1"; }

# Runs one killer line in the copy; succeeds when the named test passes.
run_killer() {
    local line="$1" name selectors
    name="${line##* }"
    selectors="${line% *}"
    # shellcheck disable=SC2086
    (cd "$src" && cargo test --offline -q $selectors --no-run >> "$log" 2>&1) || {
        echo "mutants: build failed for '$line' (see $log)" >&2
        exit 2
    }
    # shellcheck disable=SC2086
    (cd "$src" && cargo test --offline -q $selectors -- --exact "$name" >> "$log" 2>&1)
}

echo "-- unmutated: every killer must pass"
for p in "${patches[@]}"; do
    while read -r k; do
        run_killer "$k" || { echo "mutants: killer fails unmutated: $k (see $log)" >&2; exit 2; }
    done < <(killers_of "$p")
done

survivors=0
printf '%-32s %-72s %s\n' mutant killer result
for p in "${patches[@]}"; do
    mutant="$(basename "$p" .patch)"
    (cd "$src" && patch -s -p1 < "$p")
    killed=0
    while read -r k; do
        if run_killer "$k"; then
            result=survived
        else
            result=KILLED
            killed=1
        fi
        printf '%-32s %-72s %s\n' "$mutant" "$k" "$result"
    done < <(killers_of "$p")
    (cd "$src" && patch -s -R -p1 < "$p")
    if [ "$killed" -eq 0 ]; then
        echo "mutants: $mutant survives: $(sed -n 's/^# reason: //p' "$p")" >&2
        survivors=$((survivors + 1))
    fi
done

if [ "$survivors" -ne 0 ]; then
    echo "mutants: $survivors mutant(s) survived" >&2
    exit 1
fi
echo "mutants: all ${#patches[@]} mutants killed"
