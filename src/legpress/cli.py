"""Command-line interface.

Subcommands:
  eval      run seeded episodes of a benchmark task with a policy
  multistep run the one-meter multi-step distant-goal protocol: every sub-goal
            lies straight ahead along x, and lateral drift past the limit
            fails a run
  regbench  registration synthetic suite (rotation/translation MAE, ICP exits
            and iterations, degraded cases and cases won by a rotated start)
  simcheck  simulator invariant suite: one line per row of SIM_CHECKS, the
            table the Tier-1 tests assert too; the momentum rows read
            `simworld.momentum`
  sweep     seeded outcome sweep: every task with the planning policy, the
            multi-step protocol in walk and teleport mode; the gate for any
            change that moves a trajectory. With --against FILE (a table sweep
            printed earlier) it then lists the episodes whose outcome class or
            steps moved, the count changes per task and `moved N of M`. With
            --jobs N it runs the episodes in up to N processes (no more than
            the usable cores), the calling one among them, and prints the
            table the serial run prints
  replay    recompute and print the summary of a trace file

The first line of `eval`, `multistep`, `regbench` and `sweep` records the BLAS
thread variables, which the last digits of their results depend on. The second
line of `regbench` records how many processes share its cases (`shares=N`),
which its timing depends on and its results do not.

The configuration file path comes from --config or the LEGPRESS_CONFIG
environment variable; defaults apply otherwise. Exit code 0 on success.
Bad input (a `ValueError`, such as an unknown config key) or a file that
cannot be read (an `OSError`) exits 2 with a machine-readable JSON error
record on stderr; any other exception is a bug and propagates with its
traceback.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import Counter

import numpy as np

from .config import StackConfig, load_config
from .geom import RigidTransform
from .harness import (
    TASK_NAMES,
    TaskSpec,
    ambiguity_benchmark,
    evaluate,
    map_shares,
    multi_step_protocol,
    registration_benchmark,
    usable_cores,
)
from .mpc import ForceMpc, GaitSchedule
from .orchestrator import EpisodeOptions, EpisodeTrace
from .simworld import (REAR_RIGHT, Box, SimObject, momentum, rest_pose_on_ground,
                       standing_world, step)


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _print_blas_env() -> None:
    """First line of a results table: the BLAS thread variables, `unset` for
    an absent one, so that two tables can be compared."""
    print("env " + " ".join(f"{var}={os.environ.get(var, 'unset')}" for var in _BLAS_VARS))


def _episode_options(args) -> EpisodeOptions:
    return EpisodeOptions(
        max_steps=args.max_steps,
        reposition=args.reposition,
        pose_source=args.pose_source,
    )


def cmd_eval(args) -> int:
    config = load_config(args.config)
    spec = TaskSpec(args.task, object_split=args.split)
    options = _episode_options(args)
    _print_blas_env()
    report = evaluate(args.policy, spec, args.episodes, seed=args.seed,
                      options=options, config=config, out_dir=args.out)
    print(f"task={report.task} policy={report.policy} episodes={len(report.episodes)}")
    print(f"success_rate={report.success_rate!r}")
    print(f"mean_reward={report.mean_reward!r}")
    print(f"mean_steps={report.mean_steps!r}")
    for e in report.episodes:
        print(f"  seed={e['seed']} outcome={e['outcome']} steps={e['steps']} "
              f"final_mean_flow={e['final_mean_flow']!r}")
    return 0


def cmd_multistep(args) -> int:
    if args.runs < 1:
        raise ValueError("need at least one run")
    config = load_config(args.config)
    options = EpisodeOptions(reposition=args.reposition, pose_source=args.pose_source)
    _print_blas_env()
    rows = []
    for i in range(args.runs):
        res = multi_step_protocol(args.policy, seed=args.seed + i, options=options,
                                  config=config)
        rows.append(res)
        print(f"run={args.seed + i} steps={res.steps} y_error_cm={res.y_error_cm!r} "
              f"outcome={res.outcome}")
    ok = [r for r in rows if r.outcome == "success"]
    print(f"success {len(ok)}/{len(rows)}"
          + (f" median_steps={np.median([r.steps for r in ok]):g}"
             f" mean_y_error_cm={float(np.mean([r.y_error_cm for r in ok]))!r}"
             if ok else ""))
    return 0


def cmd_regbench(args) -> int:
    _print_blas_env()
    print(f"shares={usable_cores()}")
    res = registration_benchmark(args.cases, seed=args.seed)
    print(f"cases={res.cases}")
    print(f"rotation_mae_deg={res.rotation_mae_deg!r}")
    print(f"translation_mae={res.translation_mae!r}")
    print(" ".join(["icp_exits"] + [f"{k}={v}" for k, v in res.icp_exits.items()]))
    starts = sum(res.icp_exits.values())
    mean = res.icp_iterations / starts if starts else 0.0
    print(f"icp_iterations starts={starts} total={res.icp_iterations} mean={mean!r}")
    print(f"degraded={res.degraded}")
    print(f"augmented_winners={res.augmented_winners}")
    if args.ambiguity:
        amb = ambiguity_benchmark(args.ambiguity, seed=args.seed)
        print(f"ambiguity_trials={amb.trials}")
        print(f"augmented_success={amb.augmented_success!r}")
        print(f"single_shot_success={amb.single_shot_success!r}")
    return 0


def _parse_seeds(text: str) -> list[int]:
    """Seeds from '0-9', '3' or '0-2,7' (ranges inclusive, low to high)."""
    seeds = []
    for part in text.split(","):
        lo, dash, hi = part.partition("-")
        if dash and not hi:
            raise ValueError(f"seed range {part!r} has no end")
        lo, hi = int(lo), int(hi or lo)
        if hi < lo:
            raise ValueError(f"seed range {part!r} runs from high to low")
        seeds.extend(range(lo, hi + 1))
    return seeds


def _sweep_episode(name: str, mode: str | None, seed: int, cfg: StackConfig,
                   options: EpisodeOptions) -> tuple[str, str]:
    """Outcome and detail text of one planning-policy episode; a multi-step
    run when mode names its reposition mode."""
    if mode is not None:
        res = multi_step_protocol("planning", seed=seed,
                                  options=EpisodeOptions(reposition=mode), config=cfg)
        return res.outcome, f"steps={res.steps} y_error_cm={res.y_error_cm!r}"
    ep = evaluate("planning", TaskSpec(name), 1, seed=seed, options=options,
                  config=cfg).episodes[0]
    return ep["outcome"], f"steps={ep['steps']} final_mean_flow={ep['final_mean_flow']!r}"


_SWEEP_ROW = re.compile(r"  seed=(\d+) outcome=(.*?) steps=(\d+) ")


def _read_sweep_table(lines) -> dict:
    """{(task line, seed): (outcome class, steps)} of a `sweep` table. The
    outcome class is the outcome before its parenthesised detail: the fault
    class of a fault."""
    rows, task = {}, None
    for line in lines:
        if line.startswith("task="):
            task = line.rstrip("\n")
        elif (m := _SWEEP_ROW.match(line)) and task is not None:
            rows[task, int(m[1])] = (m[2].split(" (")[0], int(m[3]))
    return rows


def _count_text(classes) -> str:
    """'class=count ...' in class order."""
    return " ".join(f"{k}={v}" for k, v in sorted(Counter(classes).items()))


def _print_moved(rows: dict, before: dict) -> None:
    """Each episode of rows whose outcome class or steps differ from before
    (or that before lacks), each task whose counts changed, and the total."""
    moved = 0
    for (task, seed), now in rows.items():
        was = before.get((task, seed))
        if was != now:
            moved += 1
            old = "absent" if was is None else f"{was[0]} steps={was[1]}"
            print(f"  moved {task} seed={seed}: {old} -> {now[0]} steps={now[1]}")
    for task in dict.fromkeys(t for t, _ in rows):
        old, new = (_count_text(c for (t, _), (c, _) in table.items() if t == task)
                    for table in (before, rows))
        if old != new:
            print(f"  counts {task}: {old} -> {new}")
    print(f"moved {moved} of {len(rows)}")


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    cfg = load_config(args.config)
    seeds = _parse_seeds(args.seeds)
    options = EpisodeOptions(max_steps=args.max_steps)
    before = None
    if args.against is not None:
        with open(args.against) as fh:
            before = _read_sweep_table(fh)
        if not before:
            raise ValueError(f"{args.against} holds no sweep rows")
    _print_blas_env()
    groups = [(name, mode) for name in args.tasks
              for mode in (("walk", "teleport") if name == "multi_step_1m" else (None,))]
    work = [(name, mode, seed) for name, mode in groups for seed in seeds]

    def share(part: int, parts: int):
        return (_sweep_episode(*work[i], cfg, options) for i in range(part, len(work), parts))

    episodes = iter(map_shares(share, min(args.jobs, usable_cores(), len(work))))
    table = []
    for name, mode in groups:
        table.append(f"task={name}" + (f" reposition={mode}" if mode else ""))
        print(table[-1])
        classes = []
        for seed in seeds:
            outcome, detail = next(episodes)
            classes.append(outcome.split(" (")[0])
            table.append(f"  seed={seed} outcome={outcome} {detail}")
            print(table[-1])
        print("  counts " + _count_text(classes))
    if before is not None:
        print(f"against {args.against}")
        _print_moved(_read_sweep_table(table), before)
    return 0


# ---------------------------------------------------------------------------
# simulator invariants: each check builds its scene from a StackConfig and
# returns its worst violation; a check passes when that is at most its bound


def _determinism_violation(cfg: StackConfig) -> float:
    """Largest difference between two worlds with a box under the same
    random torques, and a copy of the first taken halfway: trunk, feet and
    object pose."""
    shape = Box((0.07, 0.07, 0.05))
    obj = SimObject.from_shape(shape, rest_pose_on_ground(shape))
    worlds = [standing_world(cfg, objects=[obj.copy()]) for _ in range(2)]
    tau = np.random.default_rng(31).normal(scale=0.5, size=(50, 12))
    for k in range(50):
        if k == 25:
            worlds.append(worlds[0].copy())
        for w in worlds:
            step(w, tau[k])

    def state(w):
        o = w.objects[0]
        return np.concatenate([w.robot.srb.as_vector(), np.ravel(w.robot.feet_pos),
                               o.pose.translation, o.pose.rotation.ravel()])
    return float(max(np.max(np.abs(state(w) - state(worlds[0]))) for w in worlds[1:]))


def _momentum_violation(cfg: StackConfig) -> float:
    """Largest drift of linear or angular momentum of the robot and a
    spinning box over 1000 steps without gravity or ground."""
    obj = SimObject.from_shape(Box((0.1, 0.07, 0.05)),
                               RigidTransform(np.eye(3), [0.5, 0.2, 0.4]))
    obj.linear_velocity = (0.1, -0.2, 0.05)
    obj.angular_velocity = (0.4, -0.3, 0.6)
    world = standing_world(cfg, objects=[obj])
    world.gravity_enabled = world.ground_enabled = False
    rb, srb = world.robot, world.robot.srb
    srb.linear_velocity = (0.02, 0.01, -0.01)
    srb.angular_velocity = (0.05, -0.02, 0.1)
    rb.feet_vel = (srb.linear_velocity,) * 4
    p0 = momentum(world)
    for _ in range(1000):
        step(world, np.zeros(12))
    return float(np.max(np.abs(momentum(world) - p0)))


def _stop_scene(cfg: StackConfig):
    """The joint-stop scene: the standing robot with gravity and ground off,
    its rear-right foot driven each tick by the world force (0, -6, 6) N
    through the joint torques Jl' R' f, the other legs at zero torque, for
    300 ticks. The foot reaches its joint stops after 68 ticks and rides on
    them. Yields the world before the first tick and after each tick."""
    world = standing_world(cfg)
    world.gravity_enabled = world.ground_enabled = False
    rb = world.robot
    f = np.array([0.0, -6.0, 6.0])
    yield world
    for _ in range(300):
        tau = np.zeros(12)
        Jl = np.array(rb.legs[REAR_RIGHT].jacobian_rows)
        tau[9:12] = Jl.T @ (rb.srb.rotation().T @ f)
        step(world, tau)
        yield world


def _joint_stop_violation(cfg: StackConfig) -> float:
    """Largest drift of the robot's momentum over the stop scene."""
    worlds = _stop_scene(cfg)
    p0 = momentum(next(worlds))
    return float(max(np.max(np.abs(momentum(w) - p0)) for w in worlds))


def _friction_cone_violation(cfg: StackConfig) -> float:
    """Largest excess of tangential over mu times normal force at any contact
    while a box slides at (0.4, 0.2) m/s beside the standing robot."""
    shape = Box((0.08, 0.06, 0.05))
    obj = SimObject.from_shape(shape, RigidTransform.identity())
    obj.pose = rest_pose_on_ground(shape, config=cfg, mass=obj.mass)
    obj.linear_velocity = (0.4, 0.2, 0.0)
    world = standing_world(cfg, objects=[obj])
    mu = min(obj.friction, cfg.contact.friction)
    excess = []
    for _ in range(300):
        step(world, np.zeros(12))
        excess += [rec.tangential_force - mu * rec.normal_force for rec in world.contact_set]
    return float(np.max(excess))


def _stand_error(cfg: StackConfig) -> np.ndarray:
    """Departure of the first-step MPC forces that hold the standing robot
    from a quarter of its weight on each foot; infinite on a solver fault."""
    world = standing_world(cfg)
    mpc = ForceMpc(cfg)
    res = mpc.step(world.robot.srb, (0.0, 0.0, 0.0, cfg.mpc.stand_height),
                   world.robot.feet_pos, GaitSchedule.stand(), 0.0)
    if res.fault:
        return np.full((4, 3), np.inf)
    return np.abs(res.forces - (0.0, 0.0, cfg.robot.trunk_mass * cfg.sim.gravity / 4.0))


SIM_CHECKS = (  # (name, worst violation of a StackConfig, bound)
    ("determinism", _determinism_violation, 0.0),
    ("momentum", _momentum_violation, 1e-6),
    ("joint stop momentum", _joint_stop_violation, 1e-6),
    ("friction cone", _friction_cone_violation, 1e-9),
    ("stand force z", lambda cfg: float(np.max(_stand_error(cfg)[:, 2])), 1e-3),
    ("stand force xy", lambda cfg: float(np.max(_stand_error(cfg)[:, :2])), 1e-6),
)


def cmd_simcheck(args) -> int:
    cfg = load_config(args.config)
    failures = 0
    for name, check, bound in SIM_CHECKS:
        worst = check(cfg)
        ok = worst <= bound
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: worst {worst!r}, bound {bound!r}")
    print(f"{'OK' if failures == 0 else 'FAILURES: ' + str(failures)}")
    return 1 if failures else 0


def cmd_replay(args) -> int:
    trace = EpisodeTrace.read_jsonl(args.trace)
    print(f"task={trace.task} seed={trace.seed} schema={trace.schema}")
    print(f"outcome={trace.outcome} steps_used={trace.steps_used}")
    print(f"final_mean_flow={trace.final_mean_flow!r}")
    print(f"success_threshold={trace.success_threshold!r}")
    print(f"actions={len(trace.actions)} checks={len(trace.rewards)}")
    if trace.rewards:
        print(f"final_reward={trace.rewards[-1]!r}")
        recomputed_success = -trace.rewards[-1] < trace.success_threshold
        consistent = recomputed_success == trace.success
        print(f"success_consistency={'ok' if consistent else 'MISMATCH'}")
        return 0 if consistent else 3
    return 0


POLICY_HELP = ("planning | flow | random | null | oracle | maps:<path> "
               "(the baselines use the front-left leg)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="legpress",
                                description="desk-scale loco-manipulation benchmarks")
    p.add_argument("--config", default=None,
                   help="config file (defaults to $LEGPRESS_CONFIG, then built-ins)")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="run episodes of one task")
    pe.add_argument("--task", required=True, choices=[t for t in TASK_NAMES if t != "multi_step_1m"])
    pe.add_argument("--policy", required=True, help=POLICY_HELP)
    pe.add_argument("--episodes", type=int, default=10)
    pe.add_argument("--seed", type=int, default=0)
    pe.add_argument("--out", default=None, help="directory for traces + summary CSV")
    pe.add_argument("--max-steps", type=int, default=7)
    pe.add_argument("--reposition", choices=("teleport", "walk"), default="teleport")
    pe.add_argument("--pose-source", choices=("ground_truth", "register"),
                    default="ground_truth")
    pe.add_argument("--split", choices=("train", "eval"), default="train")
    pe.set_defaults(fn=cmd_eval)

    pm = sub.add_parser("multistep", help="one-meter multi-step protocol")
    pm.add_argument("--policy", default="planning", help=POLICY_HELP)
    pm.add_argument("--runs", type=int, default=5)
    pm.add_argument("--seed", type=int, default=0)
    pm.add_argument("--reposition", choices=("teleport", "walk"), default="walk")
    pm.add_argument("--pose-source", choices=("ground_truth", "register"),
                    default="ground_truth")
    pm.set_defaults(fn=cmd_multistep)

    pr = sub.add_parser("regbench", help="registration synthetic suite")
    pr.add_argument("--cases", type=int, default=200)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--ambiguity", type=int, default=0,
                    help="also run N symmetric-ambiguity trials")
    pr.set_defaults(fn=cmd_regbench)

    ps = sub.add_parser("simcheck", help="simulator invariant suite")
    ps.set_defaults(fn=cmd_simcheck)

    pw = sub.add_parser("sweep", help="seeded outcome sweep over the tasks")
    pw.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 0-2,7")
    pw.add_argument("--max-steps", type=int, default=2,
                    help="action budget of the single-goal tasks; multi-step keeps its own")
    pw.add_argument("--tasks", nargs="+", choices=TASK_NAMES, default=list(TASK_NAMES))
    pw.add_argument("--against", default=None, metavar="FILE",
                    help="a table sweep printed earlier: after this table, print "
                         "the episodes whose outcome class or steps moved")
    pw.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="processes, the calling one included, at most the "
                         "usable cores; the table is the serial one")
    pw.set_defaults(fn=cmd_sweep)

    pp = sub.add_parser("replay", help="recompute a trace summary")
    pp.add_argument("--trace", required=True)
    pp.set_defaults(fn=cmd_replay)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as e:  # bad input or file: a machine-readable record
        json.dump({"error": type(e).__name__, "message": str(e)}, sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
