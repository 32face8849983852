#!/bin/sh
# End-to-end check of the command line's exit codes.
#
#   sh scripts/check_exit_codes.sh fenepsv                   # installed console script
#   sh scripts/check_exit_codes.sh python3 -m fenepsv.cli    # from a source checkout
#
# The arguments are the command that starts the command line.  Each case must
# exit with its documented code within $limit seconds and print no Python
# traceback; a case still running at the limit is killed and fails.  Scratch
# files go to a fresh directory under $TMPDIR (default /tmp), removed on exit.
set -u
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
status=0
limit=60

expect() {
    want=$1
    shift
    timeout -k 5 "$limit" "$@" >"$work/stdout" 2>"$work/stderr"
    got=$?
    if [ "$got" = 124 ] || [ "$got" = 137 ]; then
        echo "FAIL: still running after $limit s (killed): $*" >&2
        status=1
    elif [ "$got" != "$want" ] || grep -q Traceback "$work/stderr"; then
        echo "FAIL: exit $got, expected $want: $*" >&2
        cat "$work/stderr" >&2
        status=1
    else
        echo "ok: exit $got: $*"
    fi
}

# The last case printed its one error line on stderr and nothing else (no
# floating-point warnings ahead of it).
one_stderr_line() {
    if [ "$(wc -l <"$work/stderr")" -ne 1 ]; then
        echo "FAIL: $1 printed more than one line on stderr:" >&2
        cat "$work/stderr" >&2
        status=1
    fi
}

printf 'frobnicate = 1\n' >"$work/unknown.cfg"
printf 'cells = 16\nt_end = 0.01\ndt_min_factor = 1.0\n' >"$work/collapse.cfg"
printf 'cells = 16\nlambda = inf\n' >"$work/lambda_inf.cfg"
printf 'cells = 16\nt_end = inf\n' >"$work/t_end_inf.cfg"
# Finite bounds whose cell width overflows to inf, underflows to 0 at 4096
# cells, or is subnormal at 1000 cells: config errors (exit 2).
printf 'x_min = -1e308\nx_max = 1e308\njump_x = 0\n' >"$work/width_inf.cfg"
printf 'x_max = 1e-320\ncells = 4096\njump_x = 5e-321\n' >"$work/width_zero.cfg"
printf 'x_max = 1e-320\ncells = 1000\njump_x = 5e-321\n' >"$work/width_subnormal.cfg"
# Two clean solves: a smooth wave, which has no runs of equal cells (every
# cell evaluated), and a dam break (evaluated on the compressed cells of its
# runs).
printf 'scenario = smooth-wave\nbc = transmissive\ncells = 4096\nt_end = 0.002\n' >"$work/smooth.cfg"
printf 'cells = 4096\nt_end = 0.01\n' >"$work/dam.cfg"
# The dam break on its runs with the other two boundary kinds (the compressed
# cells are padded with the ghost cells of the grid's end cells: a reflective
# ghost flips the sign of hu, a periodic one copies the other end), and with
# the free-energy audit strict.
printf 'cells = 4096\nt_end = 0.01\nbc = reflective\n' >"$work/dam_reflective.cfg"
printf 'cells = 4096\nt_end = 0.01\nbc = periodic\n' >"$work/dam_periodic.cfg"
printf 'cells = 4096\nt_end = 0.01\nstrict_dissipation = true\n' >"$work/dam_strict.cfg"
# Strict subcharacteristic mode, which re-solves the fan with doubled speeds,
# on every interface (256 cells) and on the compressed cells (4096).
printf 'cells = 256\nt_end = 0.02\nstrict_subchar = true\n' >"$work/strict_256.cfg"
printf 'cells = 4096\nt_end = 0.005\nstrict_subchar = true\n' >"$work/strict_4096.cfg"
printf 'cells = 64\nmax_steps = 3\n' >"$work/budget.cfg"
# Runs whose t_end is out of reach, with no max_steps: a dam break on a domain
# 1e-300 wide, and a t_end of 1e300.  Each projects more steps than the run's
# step limit after its first step (exit 3).
printf 'cells = 64\nx_max = 1e-300\njump_x = 5e-301\n' >"$work/tiny_domain.cfg"
printf 'cells = 16\nt_end = 1e300\n' >"$work/far_t_end.cfg"
# Conformations of 1e-300 on both sides of a strict dam break on the
# compressed cells: the first step's free-energy residuals are NaN, which the
# audit counts as violations (exit 4).
printf 'cells = 4096\nstrict_dissipation = true\nleft_sxx = 1e-300\nleft_szz = 1e-300\nright_sxx = 1e-300\nright_szz = 1e-300\n' >"$work/nan_strict.cfg"
# A grid-refinement study of a lake at rest: every error is 0, so no order is
# defined (exit 0, "-" in the table).  Levels that do not increase are a
# config error (exit 2).
printf 'scenario = uniform\ncells = 16\n' >"$work/uniform.cfg"
# A right depth of 1e-300: the fan's star depths come out non-positive, which
# the fan's own checks report as a StarStateError (exit 3).
printf 'cells = 64\nright_h = 1e-300\n' >"$work/fan_fail.cfg"
# Settings that a type checks when the config is built: an unknown boundary
# kind and a negative collapse factor (checked by the step's control), a
# boolean that is not one and an empty value (checked by the parser).  Each is
# a config error (exit 2).
printf 'bc = open\n' >"$work/bc_open.cfg"
printf 'dt_min_factor = -1\n' >"$work/dt_min_factor.cfg"
printf 'strict_subchar = maybe\n' >"$work/strict_maybe.cfg"
printf 'cells =\n' >"$work/cells_empty.cfg"
# An output directory under a regular file cannot be made: a config error
# (exit 2).  A read-only directory would not do, as root may write to it.
: >"$work/plain_file"
# A trillion output times on 16 cells: each is made when the run reaches it,
# so the run holds no list of them and stops after its first step, which
# projects more steps than the run's step limit (exit 3).  It runs under a
# 1.5 GB address-space limit, so a tree that lists the times fails the case
# with a MemoryError instead of exhausting the machine.
printf 'cells = 16\nsnapshots = 1000000000000\n' >"$work/many_snapshots.cfg"
# A grid-refinement study against the exact shallow-water dam break where that
# solution does not apply: the default G = 0.1, and G = 0 with the depths
# reversed.  Each is a config error (exit 2) before any level runs.
printf 'cells = 16\n' >"$work/exact_elastic.cfg"
printf 'G = 0\nleft_h = 0.1\nright_h = 1.0\n' >"$work/exact_reversed.cfg"
# A billion cells, whose grid of 8 GB per array the 1.5 GB address-space limit
# refuses at once: a config error (exit 2), not a MemoryError traceback.
printf 'cells = 1000000000\n' >"$work/huge_grid.cfg"

expect 2 "$@" solve --config "$work/unknown.cfg" --out "$work/unknown"
expect 3 "$@" solve --config "$work/collapse.cfg" --out "$work/collapse"
if ! grep -q '"status": "error"' "$work/collapse/run.json"; then
    echo "FAIL: the collapsed run wrote no error run.json" >&2
    status=1
fi
expect 2 "$@" solve --config "$work/lambda_inf.cfg" --out "$work/lambda_inf"
expect 2 "$@" solve --config "$work/t_end_inf.cfg" --out "$work/t_end_inf"
expect 2 "$@" solve --config "$work/width_inf.cfg" --out "$work/width_inf"
expect 2 "$@" solve --config "$work/width_zero.cfg" --out "$work/width_zero"
expect 2 "$@" solve --config "$work/width_subnormal.cfg" --out "$work/width_subnormal"
expect 0 "$@" solve --config "$work/smooth.cfg" --out "$work/smooth"
expect 0 "$@" solve --config "$work/dam.cfg" --out "$work/dam"
expect 0 "$@" solve --config "$work/dam_reflective.cfg" --out "$work/dam_reflective"
expect 0 "$@" solve --config "$work/dam_periodic.cfg" --out "$work/dam_periodic"
expect 0 "$@" solve --config "$work/dam_strict.cfg" --out "$work/dam_strict"
expect 0 "$@" solve --config "$work/strict_256.cfg" --out "$work/strict_256"
expect 0 "$@" solve --config "$work/strict_4096.cfg" --out "$work/strict_4096"
expect 3 "$@" solve --config "$work/budget.cfg" --out "$work/budget"
if ! grep -q 'StepBudgetExceeded' "$work/budget/run.json"; then
    echo "FAIL: the run over its step budget wrote no error run.json" >&2
    status=1
fi
for case in tiny_domain far_t_end; do
    expect 3 "$@" solve --config "$work/$case.cfg" --out "$work/$case"
    if ! grep -q 'StepBudgetExceeded' "$work/$case/run.json"; then
        echo "FAIL: the run with t_end out of reach ($case) wrote no error run.json" >&2
        status=1
    fi
done
expect 3 sh -c 'ulimit -v 1500000 && exec "$@"' sh "$@" \
    solve --config "$work/many_snapshots.cfg" --out "$work/many_snapshots"
if ! grep -q 'StepBudgetExceeded' "$work/many_snapshots/run.json"; then
    echo "FAIL: the run with a trillion output times wrote no error run.json" >&2
    status=1
fi
expect 4 "$@" solve --config "$work/nan_strict.cfg" --out "$work/nan_strict"
one_stderr_line nan_strict
if ! grep -q 'DissipationViolation' "$work/nan_strict/run.json"; then
    echo "FAIL: the run with NaN residuals wrote no DissipationViolation into run.json" >&2
    status=1
fi
expect 0 "$@" converge --config "$work/uniform.cfg" --levels 16,32,64
expect 2 "$@" converge --config "$work/uniform.cfg" --levels 64,32
for case in exact_elastic exact_reversed; do
    expect 2 "$@" converge --config "$work/$case.cfg" --levels 16,32 --reference exact-sw
done
expect 2 sh -c 'ulimit -v 1500000 && exec "$@"' sh "$@" \
    solve --config "$work/huge_grid.cfg" --out "$work/huge_grid"
expect 3 "$@" solve --config "$work/fan_fail.cfg" --out "$work/fan_fail"
one_stderr_line fan_fail
if ! grep -q 'StarStateError' "$work/fan_fail/run.json"; then
    echo "FAIL: the run whose fan failed wrote no StarStateError into run.json" >&2
    status=1
fi
for case in bc_open dt_min_factor strict_maybe cells_empty; do
    expect 2 "$@" solve --config "$work/$case.cfg" --out "$work/$case"
done
expect 2 "$@" solve --config "$work/uniform.cfg" --out "$work/plain_file/out_under_file"
if ! grep -q 'cannot create output directory' "$work/stderr"; then
    echo "FAIL: the output directory under a regular file was not named as one" >&2
    status=1
fi
expect 2 "$@" check --samples 0
exit $status
