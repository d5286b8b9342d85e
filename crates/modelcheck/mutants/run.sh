#!/usr/bin/env bash
# The mutant catalogue: each *.patch beside this script re-introduces one
# collector, engine or analyzer defect. Its header (text before the first
# `diff`, which `git apply` ignores) names the defect, where it comes
# from, and the gate expected to kill it.
#
#   run.sh           for every patch, in one scratch git worktree of HEAD
#                    (target/mutants/tree, reused so builds stay
#                    incremental): apply it, run `modelcheck --k 1`, run
#                    Tier-1 (`cargo test -q --workspace`) only if
#                    modelcheck missed, revert. Prints the kill matrix and
#                    writes it to target/mutants/kill-matrix.md.
#   run.sh --check   only `git apply --check` every patch against the
#                    working tree (seconds).
#
# Exits non-zero if a patch does not apply or does not build, or if a
# mutant survives both gates without an `Expected: survives` header line
# saying which op the k = 1 language lacks. A gate that times out counts
# as a kill. The caller's working tree is never modified.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(git -C "$here" rev-parse --show-toplevel)
patches=("$here"/*.patch)

if [[ ${1:-} == --check ]]; then
    bad=0
    for p in "${patches[@]}"; do
        if git -C "$root" apply --check "$p"; then
            echo "applies: $(basename "$p")"
        else
            echo "DOES NOT APPLY: $(basename "$p")"
            bad=1
        fi
    done
    exit "$bad"
elif [[ $# -gt 0 ]]; then
    echo "usage: $0 [--check]" >&2
    exit 2
fi

MODELCHECK_TIMEOUT=600 # seconds, for the run after the build
TIER1_TIMEOUT=1800

# The worktree builds into its own target directory.
unset CARGO_TARGET_DIR
out="$root/target/mutants"
tree="$out/tree"
matrix="$out/kill-matrix.md"
mkdir -p "$out"
if [[ ! -e $tree/.git ]]; then
    git -C "$root" worktree prune
    git -C "$root" worktree add --detach "$tree" HEAD >/dev/null
fi
git -C "$tree" checkout --quiet --detach --force "$(git -C "$root" rev-parse HEAD)"
revert() { git -C "$tree" reset --quiet --hard && git -C "$tree" clean -fdq; }
trap revert EXIT
revert

# Builds with `build`, then runs `cmd` under `limit` seconds. Prints
# "verdict seconds": killed (the gate failed), survived (it passed) or
# timeout. Exits 1 if the build fails.
gate() {
    local limit=$1 build=$2 cmd=$3 start rc=0
    start=$(date +%s)
    if ! (cd "$tree" && eval "$build") >>"$log" 2>&1; then
        return 1
    fi
    (cd "$tree" && timeout "$limit" bash -c "$cmd") >>"$log" 2>&1 || rc=$?
    local secs=$(($(date +%s) - start))
    case $rc in
        0) echo "survived ${secs}" ;;
        124) echo "timeout ${secs}" ;;
        *) echo "killed ${secs}" ;;
    esac
}

# What killed the mutant, from its log: the model checker's mismatch, or
# the first failing Tier-1 test and its test target.
culprit() {
    local what
    what=$(sed -n 's/^MISMATCH: //p' "$log" | head -n 1 | cut -c1-80)
    if [[ -z $what ]]; then
        what=$(sed -n 's/^\(.*\) --- FAILED$/\1/p' "$log" | head -n 1)
        local target
        target=$(sed -n 's/.*rerun pass `\(.*\)`.*/\1/p' "$log" | head -n 1)
        [[ -n $target ]] && what="$what ($target)"
    fi
    echo "$what"
}

mc_build='cargo build --offline --profile mcheck -p gca-modelcheck --bin modelcheck -q'
mc_run='cargo run --offline --profile mcheck -p gca-modelcheck --bin modelcheck -q -- --k 1'
t1_build='cargo test --offline -q --workspace --no-run'
t1_run='cargo test --offline -q --workspace'

status=0
total_start=$(date +%s)
{
    echo "| mutant | expected | modelcheck --k 1 | Tier-1 | killed by |"
    echo "|---|---|---|---|---|"
} | tee "$matrix"
for p in "${patches[@]}"; do
    name=$(basename "$p" .patch)
    log="$out/$name.log"
    : >"$log"
    expected=$(sed -n 's/^Expected: *//p' "$p" | head -n 1)
    mc="—" t1="—"
    if ! git -C "$tree" apply "$p" 2>>"$log"; then
        mc="not-applied"
        status=1
    elif ! r=$(gate "$MODELCHECK_TIMEOUT" "$mc_build" "$mc_run"); then
        mc="build failed"
        status=1
    else
        mc="${r% *} (${r#* } s)"
        if [[ ${r% *} == survived ]]; then
            if ! r=$(gate "$TIER1_TIMEOUT" "$t1_build" "$t1_run"); then
                t1="build failed"
                status=1
            else
                t1="${r% *} (${r#* } s)"
                if [[ ${r% *} == survived && $expected != survives* ]]; then
                    echo "unlisted survivor: $name (log: $log)" >&2
                    status=1
                fi
            fi
        fi
    fi
    revert
    by=""
    [[ $mc == killed* || $t1 == killed* ]] && by=$(culprit)
    echo "| $name | $expected | $mc | $t1 | $by |" | tee -a "$matrix"
done
total=$(($(date +%s) - total_start))
echo "total wall time: ${total} s" | tee -a "$matrix"
echo "kill matrix: $matrix"
exit "$status"
