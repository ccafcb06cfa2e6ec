#!/usr/bin/env bash
# Where does a ledger workload spend its CPU time? A sampling profiler for a
# sandbox without perf, gdb or valgrind:
#
#   scripts/profile.sh <workload> [seconds]      # default 9 s
#
# Builds the unedited `ledger` with line tables into target/profile, preloads
# a SIGPROF sampler that records the interrupted instruction pointer, and
# symbolises the samples with addr2line. Prints the share of samples by
# innermost (inlined) function, by non-inlined function (the symbol the
# instruction belongs to) and by the first frame of the inline chain that is
# a file of this repository. ITIMER_PROF ticks once per scheduler tick
# (≈4 ms here) of process CPU time whatever interval is asked for, so 9 s is
# ≈2,000 samples: shares under 1% are noise. Set-up (trace generation) is
# sampled with the passes.
set -euo pipefail
cd "$(dirname "$0")/.."

workload="${1:?usage: scripts/profile.sh <canonical|detect|rules500|freshkeys|sharded> [seconds]}"
seconds="${2:-9}"
for tool in cc addr2line; do
    if ! command -v "$tool" >/dev/null; then
        echo "profile.sh: skipped — no '$tool' on PATH"
        exit 0
    fi
done
if [[ "$(uname -sm)" != "Linux x86_64" ]]; then
    echo "profile.sh: skipped — the sampler reads REG_RIP (Linux x86_64 only)"
    exit 0
fi

root="$PWD"
dir="$root/target/profile"
mkdir -p "$dir"

cat >"$dir/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 20)
static unsigned long samples[MAX_SAMPLES];
static unsigned long count;

static void on_tick(int sig, siginfo_t *info, void *ctx) {
    unsigned long n = __atomic_fetch_add(&count, 1, __ATOMIC_RELAXED);
    if (n < MAX_SAMPLES)
        samples[n] = ((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {0};
    sa.sa_sigaction = on_tick;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void finish(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("PROFILE_SAMPLES");
    FILE *out = path ? fopen(path, "w") : NULL;
    FILE *maps = fopen("/proc/self/maps", "r");
    char line[1024];
    if (!out || !maps)
        return;
    while (fgets(line, sizeof line, maps))
        fprintf(out, "M %s", line);
    unsigned long n = count < MAX_SAMPLES ? count : MAX_SAMPLES;
    for (unsigned long i = 0; i < n; i++)
        fprintf(out, "S %lx\n", samples[i]);
    fclose(out);
}
EOF
cc -O2 -shared -fPIC -o "$dir/sampler.so" "$dir/sampler.c"

CARGO_PROFILE_RELEASE_DEBUG=line-tables-only CARGO_TARGET_DIR="$dir" \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
ledger="$dir/release/ledger"

echo "== $workload, $seconds s =="
PROFILE_SAMPLES="$dir/samples.txt" LD_PRELOAD="$dir/sampler.so" \
    "$ledger" --workload "$workload" --seed 42 --seconds "$seconds" --trace 0 |
    tail -n 1 | grep -oE '"(correct|throughput_eps)": (true|false|\{[^}]*\})' | tr '\n' ' '
echo

# Samples inside the ledger become `L <address − load base>`, the rest
# `O <mapped file>` (libc: the allocator and memcpy). mawk has no strtonum;
# user-space addresses are exact in its doubles.
awk -v bin="$ledger" '
    function hex(s,    i, n) {
        n = 0
        for (i = 1; i <= length(s); i++)
            n = n * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
        return n
    }
    $1 == "M" {
        split($2, range, "-")
        maps++
        lo[maps] = hex(range[1]); hi[maps] = hex(range[2])
        name[maps] = NF >= 7 ? $7 : "[anonymous]"
        if (name[maps] == bin && base == "") base = lo[maps]
        next
    }
    $1 == "S" {
        at = hex($2)
        where = "[unmapped]"
        for (m = 1; m <= maps; m++)
            if (at >= lo[m] && at < hi[m]) { where = name[m]; break }
        if (where == bin) printf "L %x\n", at - base
        else { sub(".*/", "", where); print "O [" where "]" }
    }' "$dir/samples.txt" >"$dir/classified.txt"

total=$(wc -l <"$dir/classified.txt")
if [[ "$total" -eq 0 ]]; then
    echo "profile.sh: no samples (did the run last long enough?)" >&2
    exit 1
fi

sed -n 's/^L //p' "$dir/classified.txt" | sort | uniq -c | awk '{ print $2, $1 }' >"$dir/counts.txt"
cut -d' ' -f1 "$dir/counts.txt" | addr2line -a -f -C -i -e "$ledger" >"$dir/symbols.txt"

# One record per address: its `0x…` line, then (function, file:line) pairs,
# innermost inlined frame first.
awk -v root="$root/" -v dir="$dir" '
    function flush(    i, own) {
        if (!frames) return
        inner[fn[1]] += weight
        outer[fn[frames]] += weight
        own = "(outside the repository) " fn[frames]
        for (i = 1; i <= frames; i++)
            if (index(loc[i], root) == 1) {
                own = substr(loc[i], length(root) + 1)
                sub(/ \(discriminator [0-9]+\)$/, "", own)
                break
            }
        site[own] += weight
        frames = 0
    }
    FILENAME ~ /counts.txt$/ { count[FNR] = $2; next }
    FILENAME ~ /classified.txt$/ {
        if ($1 == "O") { inner[$2] += 1; outer[$2] += 1; site[$2] += 1 }
        next
    }
    !want_loc && length($0) == 18 && substr($0, 1, 2) == "0x" {
        flush(); record++; weight = count[record]; next
    }
    !want_loc { frames++; fn[frames] = $0; want_loc = 1; next }
    { loc[frames] = $0; want_loc = 0 }
    END {
        flush()
        for (k in inner) print inner[k] "\t" k >(dir "/by_inner.txt")
        for (k in outer) print outer[k] "\t" k >(dir "/by_outer.txt")
        for (k in site) print site[k] "\t" k >(dir "/by_site.txt")
    }' "$dir/counts.txt" "$dir/classified.txt" "$dir/symbols.txt"

table() {
    echo
    echo "-- $1 (share of $total samples) --"
    sort -t "$(printf '\t')" -k1,1nr -k2 "$2" | head -n 25 |
        awk -F '\t' -v total="$total" '{ printf "%6.1f%%  %s\n", 100 * $1 / total, $2 }'
}
table "by innermost function" "$dir/by_inner.txt"
table "by non-inlined function" "$dir/by_outer.txt"
table "by first file:line in the repository" "$dir/by_site.txt"
