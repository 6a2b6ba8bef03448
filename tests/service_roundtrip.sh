# End-to-end byte-identity check: the same pmc flags must print the same
# stdout/stderr bytes and exit code whether they run locally or through a
# pmcd daemon (`pmc --connect`). Exercises the full lifecycle: start the
# daemon, wait for the socket, round-trip several flag shapes (compile,
# simulate, faults, schedule, profile, dse, multi-file, a user error and
# an expression too deep to compile), then stop it with `pmcd --shutdown`.
#
# usage: service_roundtrip.sh <pmc> <pmcd> <examples-dir>
set -u

PMC=$1
PMCD=$2
EXAMPLES=$3

WORK=$(mktemp -d)
SOCK="$WORK/pmcd.sock"
trap 'kill $DAEMON_PID 2>/dev/null; rm -rf "$WORK"' EXIT

"$PMCD" --socket "$SOCK" -j 2 2>"$WORK/daemon.log" &
DAEMON_PID=$!

# Wait for the daemon to come up (the socket file appears before accept).
for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && break
    sleep 0.05
done
[ -S "$SOCK" ] || { echo "FAIL: daemon never created $SOCK"; exit 1; }

fail=0

check() {
    name=$1
    shift
    "$PMC" "$@" >"$WORK/local.out" 2>"$WORK/local.err"
    local_code=$?
    "$PMC" --connect "$SOCK" "$@" >"$WORK/remote.out" 2>"$WORK/remote.err"
    remote_code=$?
    if [ "$local_code" != "$remote_code" ]; then
        echo "FAIL: $name: exit $local_code locally, $remote_code via --connect"
        fail=1
    fi
    if ! cmp -s "$WORK/local.out" "$WORK/remote.out"; then
        echo "FAIL: $name: stdout differs"
        diff "$WORK/local.out" "$WORK/remote.out" | head -20
        fail=1
    fi
    if ! cmp -s "$WORK/local.err" "$WORK/remote.err"; then
        echo "FAIL: $name: stderr differs"
        diff "$WORK/local.err" "$WORK/remote.err" | head -20
        fail=1
    fi
}

check compile --target DA "$EXAMPLES/affine.pm"
check simulate --target DA --simulate --invocations 10 "$EXAMPLES/black_scholes.pm"
check optimize --optimize --target RBT --simulate "$EXAMPLES/mobile_robot.pm"
check faults --target DA --simulate --fault-rate 0.1 --fault-seed 7 "$EXAMPLES/affine.pm"
check schedule --target DA --schedule "$EXAMPLES/affine.pm"
check profile --target DA --profile --profile-top 5 "$EXAMPLES/affine.pm"
check dse_small --target RBT --dse --dse-space small "$EXAMPLES/mobile_robot.pm"
check dse_random --target RBT --dse --dse-space full --dse-search random --dse-seed 7 "$EXAMPLES/mobile_robot.pm"
check multifile --target GA "$EXAMPLES/bfs.pm" "$EXAMPLES/pagerank.pm"
check cross_domain --optimize --target ALL --simulate "$EXAMPLES/brain_stimulation.pm"

# A user error (unknown entry) must render identically and exit 1 on
# both paths.
check bad_entry --target DA --entry nosuch "$EXAMPLES/affine.pm"

# A 200k-term flat sum is a positioned error (exit 1), not a crash (139),
# on both paths; the cases after it show the daemon survived.
awk 'BEGIN {
    printf "main(input float x, output float y) {\n    y = x"
    for (i = 1; i < 200000; i++)
        printf "+x"
    print ";\n}"
}' >"$WORK/deep_chain.pm"
check deep_chain --target DA "$WORK/deep_chain.pm"
if [ "$local_code" != 1 ]; then
    echo "FAIL: deep_chain: exit $local_code, expected 1"
    fail=1
fi

# --profile-json must write the same document bytes through either path.
check profile_json --target DA --profile-json "$WORK/p.json" "$EXAMPLES/affine.pm"
"$PMC" --target DA --profile-json "$WORK/local.json" "$EXAMPLES/affine.pm" >/dev/null 2>&1
"$PMC" --connect "$SOCK" --target DA --profile-json "$WORK/remote.json" "$EXAMPLES/affine.pm" >/dev/null 2>&1
if ! cmp -s "$WORK/local.json" "$WORK/remote.json"; then
    echo "FAIL: profile_json: document bytes differ"
    fail=1
fi

"$PMCD" --socket "$SOCK" --shutdown 2>"$WORK/shutdown.log"
if [ $? != 0 ]; then
    echo "FAIL: pmcd --shutdown reported an error"
    cat "$WORK/shutdown.log"
    fail=1
fi
wait $DAEMON_PID
if [ $? != 0 ]; then
    echo "FAIL: daemon exited non-zero"
    cat "$WORK/daemon.log"
    fail=1
fi

[ $fail = 0 ] && echo "PASS: service round-trip byte-identical"
exit $fail
