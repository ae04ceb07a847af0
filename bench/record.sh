#!/bin/sh
# Run a benchmark binary and record its table output as BENCH_<name>.json
# in the current directory (see bench/README.md for the convention).
#
#   bench/record.sh build/bench/bench_fig2a_serial [args...]
set -eu

[ $# -ge 1 ] || { echo "usage: $0 <bench-binary> [args...]" >&2; exit 2; }
bin=$1
shift
[ -x "$bin" ] || { echo "error: $bin is not an executable benchmark" >&2; exit 2; }
name=$(basename "$bin" | sed 's/^bench_//')
out="BENCH_${name}.json"

"$bin" "$@" | awk -v name="$name" '
  BEGIN {
    printf "{\n  \"bench\": \"%s\",\n", name
    "date -u +%Y-%m-%dT%H:%M:%SZ" | getline d
    printf "  \"date\": \"%s\",\n", d
    ncomments = 0; have_cols = 0; nrows = 0
    hwc = ""; sha = ""; feats = ""
  }
  # bench_common print_header stamps "# hardware_concurrency=N" so every
  # record says what machine produced it; lift that into the env block
  # (emitted in END, once comments are parsed).
  /^#/ {
    sub(/^# ?/, "")
    if (match($0, /hardware_concurrency=[0-9]+/))
      hwc = substr($0, RSTART + 21, RLENGTH - 21)
    # bench_common also stamps "# git_sha=<rev> isa_features=<bits...>"
    # (build provenance); lift both alongside the machine context.
    if (match($0, /git_sha=[^ ]+/))
      sha = substr($0, RSTART + 8, RLENGTH - 8)
    if (match($0, /isa_features=.*$/))
      feats = substr($0, RSTART + 13, RLENGTH - 13)
    comments[ncomments++] = $0; next
  }
  NF == 0 { next }
  !have_cols {
    for (i = 1; i <= NF; i++) cols[i] = $i
    ncols = NF; have_cols = 1; next
  }
  { for (i = 1; i <= NF; i++) rows[nrows, i] = $i; rowlen[nrows] = NF; nrows++ }
  END {
    printf "  \"env\": {"
    sep = ""
    split("FTGEMM_BENCH_MAX FTGEMM_BENCH_REPS FTGEMM_BENCH_THREADS " \
          "FTGEMM_BENCH_BATCH FTGEMM_BENCH_SIZE FTGEMM_BENCH_CALLS " \
          "FTGEMM_BENCH_BIG FTGEMM_BENCH_WINDOW " \
          "FTGEMM_BENCH_SERVICE_THREADS FTGEMM_SERVICE_SHARDS " \
          "FTGEMM_FORCE_ISA FTGEMM_MC FTGEMM_NC FTGEMM_KC FTGEMM_THREADS", \
          knobs, " ")
    for (i in knobs) if (knobs[i] in ENVIRON) {
      printf "%s\"%s\": \"%s\"", sep, knobs[i], ENVIRON[knobs[i]]
      sep = ", "
    }
    if (hwc == "") {
      "getconf _NPROCESSORS_ONLN 2>/dev/null" | getline hwc
    }
    if (hwc != "") {
      printf "%s\"hardware_concurrency\": %s", sep, hwc
      sep = ", "
    }
    if (sha != "") {
      printf "%s\"git_sha\": \"%s\"", sep, sha
      sep = ", "
    }
    if (feats != "") {
      gsub(/"/, "\\\"", feats)
      printf "%s\"isa_features\": \"%s\"", sep, feats
      sep = ", "
    }
    printf "},\n"
    printf "  \"comments\": ["
    for (i = 0; i < ncomments; i++) {
      gsub(/"/, "\\\"", comments[i])
      printf "%s\"%s\"", (i ? ", " : ""), comments[i]
    }
    printf "],\n  \"columns\": ["
    for (i = 1; i <= ncols; i++) printf "%s\"%s\"", (i > 1 ? ", " : ""), cols[i]
    printf "],\n  \"rows\": [\n"
    for (r = 0; r < nrows; r++) {
      printf "    ["
      for (i = 1; i <= rowlen[r]; i++) {
        v = rows[r, i]
        if (v ~ /^-?[0-9]+\.?[0-9]*x?$/) { sub(/x$/, "", v); printf "%s%s", (i > 1 ? ", " : ""), v }
        else { gsub(/"/, "\\\"", v); printf "%s\"%s\"", (i > 1 ? ", " : ""), v }
      }
      printf "]%s\n", (r < nrows - 1 ? "," : "")
    }
    printf "  ]\n}\n"
  }
' > "$out"
echo "wrote $out"
