"""Regenerates pool.json, the strata the hunt and sail workloads draw from.

    python3 perfbench/pool.py            # about ten minutes on 2 cores

A uniform sample at norms 7..14 differs from seed to seed mostly in how many
matrices reach the 8 s modular scan, and a random SL(3,Z) conjugate differs
mostly in whether its unit group comes back certified.  So the candidates
are made once here, from a fixed seed, and tagged by the path the program
took on each:

    hunt  w12 / w25 / w50   witness found at that box of the ladder
          refuted           modulus certificate
          open2 / open3     undecided after scanning the binary factor only,
                            or the ternary factor as well
    sail  certified / uncertified   unit group flag
          heavy             over 2 s, against 0.3 s typical (kept out)
          fails             torus_invariant_for raised (kept out)

A run then draws, from its own seed, the same number of entries of each tag
per round.  The tags describe the program this file was run against; they
only set the make-up of a round, every answer is still checked
independently.  Regenerating against a changed program changes the inputs,
so compare two commits only with the same pool.json.
"""

from __future__ import annotations

import json
import random
import sys
import time

import checks
import inputs
import program

POOL_SEED = "perfbench-pool-1"
HUNT_NORMS = range(7, 15)
HUNT_PER_NORM = 60
SAIL_STEPS = 6
SAIL_TARGETS = {"certified": 60, "uncertified": 24}   # entries kept per reference
SAIL_MAX_WORDS = 400
SAIL_HEAVY_S = 2.0


def hunt_pool(mods):
    solver, frobenius = mods["solver"], mods["frobenius"]
    recorder = program.FormRecorder(frobenius)
    scans = []
    inner = solver.modular_obstruction

    def modular_obstruction(coeffs, exponents, cap, *args, **kwargs):
        scans.append(len(exponents[0]))
        return inner(coeffs, exponents, cap, *args, **kwargs)

    solver.modular_obstruction = modular_obstruction
    seen = set()
    out = []
    for m in inputs.hunt_candidates(POOL_SEED + ":hunt", HUNT_NORMS, HUNT_PER_NORM):
        scans.clear()
        start = time.perf_counter()
        verdict = frobenius.decide_thm3(mods["cf3"].IntMat(m))
        ms = (time.perf_counter() - start) * 1e3
        pf = recorder.take()
        forms = (pf.mn_primitive, pf.xyz_primitive)
        if forms in seen:
            continue
        seen.add(forms)
        if verdict.status == "frobenius":
            tag = "w%d" % verdict.solvability.search_bound
        elif verdict.status == "non_frobenius":
            tag = "refuted"
        else:
            tag = "open3" if 3 in scans else "open2"
        out.append({"matrix": inputs.fmt(m), "norm": sum(abs(v) for r in m for v in r),
                    "tag": tag})
        print("hunt", len(out), tag, round(ms), flush=True)
    solver.modular_obstruction = inner
    return out


def sail_pool(mods):
    sail, IntMat = mods["sail"], mods["cf3"].IntMat
    rng = random.Random(POOL_SEED + ":sail")
    out = []
    for ref, params in inputs.REFERENCES.items():
        r = inputs.frobenius_matrix(params)
        seen = set()
        kept = {tag: 0 for tag in SAIL_TARGETS}
        while any(kept[tag] < n for tag, n in SAIL_TARGETS.items()) and len(seen) < SAIL_MAX_WORDS:
            p, p_inv = inputs.sl3_word(rng, SAIL_STEPS)
            m = checks.matmul(checks.matmul(p, r), p_inv)
            if m in seen:
                continue
            seen.add(m)
            start = time.perf_counter()
            try:
                inv = sail.torus_invariant_for(IntMat(m))
                tag = "certified" if inv.group_certified else "uncertified"
            except (RuntimeError, AssertionError) as exc:
                tag = "fails"
                print("sail fails", inputs.fmt(m), exc, flush=True)
            seconds = time.perf_counter() - start
            if tag != "fails" and seconds > SAIL_HEAVY_S:
                tag = "heavy"
            if tag in kept:
                if kept[tag] >= SAIL_TARGETS[tag]:
                    continue
                kept[tag] += 1
            out.append({"ref": ref, "matrix": inputs.fmt(m), "p": inputs.fmt(p),
                        "p_inv": inputs.fmt(p_inv), "tag": tag})
            print("sail", len(out), ref, tag, round(seconds * 1e3), flush=True)
    return out


def write_pool(pool):
    """One entry per line, so a regenerated pool diffs line by line."""
    with open(inputs.POOL_PATH, "w") as fh:
        fh.write('{"seed": %s' % json.dumps(pool["seed"]))
        for kind in ("sail", "hunt"):
            fh.write(',\n"%s": [\n' % kind)
            fh.write(",\n".join(json.dumps(e) for e in pool[kind]))
            fh.write("\n]")
        fh.write("}\n")


def main():
    mods = program.load()
    pool = {"seed": POOL_SEED, "sail": sail_pool(mods), "hunt": hunt_pool(mods)}
    write_pool(pool)
    for kind in ("hunt", "sail"):
        tags = {}
        for e in pool[kind]:
            tags[e["tag"]] = tags.get(e["tag"], 0) + 1
        print(kind, tags)
    return 0


if __name__ == "__main__":
    sys.exit(main())
