#!/usr/bin/env bash
# benchpairs.sh — judge a change against a base commit with the calibperf
# benchmark (bench/run.sh), run as alternating pairs so that load drifting
# on the host hits both sides alike.
#
#   scripts/benchpairs.sh REF WORKLOAD N [FIRST_SEED]
#   make benchpairs REF=HEAD~1 WORKLOAD=stream-mem N=10
#
# REF (any git revision) is exported into a temporary directory and built
# there by its own bench/run.sh; the change side is this working tree,
# uncommitted edits included. Pair k runs seed FIRST_SEED+k-1 (default
# FIRST_SEED 1) on both sides, and every other pair flips which side goes
# first. Each run writes its -out file under OUT (default
# .bench_build/benchpairs/<workload>). At the end the script prints, per
# gated metric of BENCHMARK.json, each side's median and quartiles and how
# many pairs the change won, then runs bench/run.sh -compare on the
# merged samples. Needs bash, git, jq and awk.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: $0 REF WORKLOAD N [FIRST_SEED]" >&2
    exit 2
fi
ref=$1 workload=$2 pairs=$3 first=${4:-1}
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out=${OUT:-"$root/.bench_build/benchpairs/$workload"}
command -v jq > /dev/null || { echo "benchpairs: jq not found" >&2; exit 2; }
rev=$(git -C "$root" rev-parse --verify "$ref^{commit}")

base=$(mktemp -d)
trap 'rm -rf "$base"' EXIT INT TERM
git -C "$root" archive "$rev" | tar -x -C "$base"
rm -rf "$out"
mkdir -p "$out"
echo "benchpairs: base $rev in $base, change $root, $pairs pairs of $workload, results in $out"

# run SIDE TREE SEED: one benchmark run, its output kept in a log.
run() {
    echo "benchpairs: seed $3 $1"
    if ! bash "$2/bench/run.sh" -workload "$workload" -seed "$3" -out "$out/$1-$3.json" > "$out/$1-$3.log" 2>&1; then
        echo "benchpairs: $1 run with seed $3 failed; see $out/$1-$3.log" >&2
        tail -n 20 "$out/$1-$3.log" >&2
        exit 1
    fi
}

for ((k = 0; k < pairs; k++)); do
    seed=$((first + k))
    if ((k % 2 == 0)); then
        run base "$base" "$seed"
        run change "$root" "$seed"
    else
        run change "$root" "$seed"
        run base "$base" "$seed"
    fi
done

# merge SIDE: concatenate the side's per-run files, in pair order, into
# one -compare input.
merge() {
    local files=()
    for ((k = 0; k < pairs; k++)); do
        files+=("$out/$1-$((first + k)).json")
    done
    jq -s 'reduce .[1:][] as $r (.[0];
            .seeds += $r.seeds
            | reduce ($r.workloads | to_entries[]) as $w (.;
                reduce ($w.value | to_entries[]) as $m (.;
                    .workloads[$w.key][$m.key].values += $m.value.values)))
        | del(.workloads[][].median, .workloads[][].min, .workloads[][].max)' \
        "${files[@]}" > "$out/$1.json"
}
merge base
merge change

# Median and quartiles by the rules bench/ judges with: the median
# averages the two middle values, the quartiles are Python's
# statistics.quantiles(n=4) ("exclusive").
jq -n -r --slurpfile spec "$root/BENCHMARK.json" \
    --slurpfile b "$out/base.json" --slurpfile c "$out/change.json" '
    def median: sort | (.[(length - 1) / 2 | floor] + .[length / 2 | floor]) / 2;
    def quartile($i): sort as $d | ($d | length) as $n
        | ([([($i * ($n + 1) / 4 | floor), 1] | max), $n - 1] | min) as $j
        | ($i * ($n + 1) - $j * 4) as $delta
        | if $n < 2 then $d[0] else ($d[$j - 1] * (4 - $delta) + $d[$j] * $delta) / 4 end;
    def stats: "\(median | . * 1e4 | round / 1e4) [\(quartile(1) | . * 1e4 | round / 1e4), \(quartile(3) | . * 1e4 | round / 1e4)]";
    ["workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "change wins"],
    ($b[0].workloads | keys[] as $w | $spec[0].end_to_end[] as $m
        | ($b[0].workloads[$w][$m.name].values // empty) as $bv
        | ($c[0].workloads[$w][$m.name].values // empty) as $cv
        | [range(0; [$bv, $cv | length] | min)
            | select(if $m.better == "lower" then $cv[.] < $bv[.] else $cv[.] > $bv[.] end)] as $won
        | [$w, $m.name, ($bv | stats), ($cv | stats), "\($won | length)/\($bv | length)"])
    | @tsv' | awk -F '\t' '{ printf "%-15s %-12s %-28s %-28s %s\n", $1, $2, $3, $4, $5 }'

echo
bash "$root/bench/run.sh" -compare "$out/base.json" "$out/change.json"
