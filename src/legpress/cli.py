"""Command-line interface.

Subcommands:
  eval      run seeded episodes of a benchmark task with a policy
  multistep run the one-meter multi-step distant-goal protocol
  regbench  registration synthetic suite (rotation/translation MAE)
  simcheck  fast simulator invariant suite
  replay    recompute and print the summary of a trace file

The configuration file path comes from --config or the LEGPRESS_CONFIG
environment variable; defaults apply otherwise. Exit code 0 on success,
nonzero with a machine-readable JSON error record on stderr.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .config import load_config
from .harness import (
    TASK_NAMES,
    TaskSpec,
    ambiguity_benchmark,
    evaluate,
    multi_step_protocol,
    registration_benchmark,
)
from .orchestrator import EpisodeOptions, EpisodeTrace


def _episode_options(args) -> EpisodeOptions:
    return EpisodeOptions(
        max_steps=args.max_steps,
        reposition=args.reposition,
        pose_source=args.pose_source,
    )


def cmd_eval(args) -> int:
    config = load_config(args.config)
    spec = TaskSpec(args.task, object_split=args.split)
    report = evaluate(args.policy, spec, args.episodes, seed=args.seed,
                      options=_episode_options(args), config=config,
                      out_dir=args.out)
    print(f"task={report.task} policy={report.policy} episodes={len(report.episodes)}")
    print(f"success_rate={report.success_rate!r}")
    print(f"mean_reward={report.mean_reward!r}")
    print(f"mean_steps={report.mean_steps!r}")
    for e in report.episodes:
        print(f"  seed={e['seed']} outcome={e['outcome']} steps={e['steps']} "
              f"final_mean_flow={e['final_mean_flow']!r}")
    return 0


def cmd_multistep(args) -> int:
    config = load_config(args.config)
    options = EpisodeOptions(reposition=args.reposition, pose_source=args.pose_source)
    rows = []
    for i in range(args.runs):
        res = multi_step_protocol(args.policy, seed=args.seed + i, options=options,
                                  config=config, y_correction=args.y_correction)
        rows.append(res)
        print(f"run={args.seed + i} steps={res.steps} y_error_cm={res.y_error_cm!r} "
              f"outcome={res.outcome}")
    ok = [r for r in rows if r.outcome == "success"]
    print(f"success {len(ok)}/{len(rows)}"
          + (f" median_steps={int(np.median([r.steps for r in ok]))}"
             f" mean_y_error_cm={float(np.mean([r.y_error_cm for r in ok]))!r}"
             if ok else ""))
    return 0


def cmd_regbench(args) -> int:
    res = registration_benchmark(args.cases, seed=args.seed)
    print(f"cases={res.cases}")
    print(f"rotation_mae_deg={res.rotation_mae_deg!r}")
    print(f"translation_mae={res.translation_mae!r}")
    if args.ambiguity:
        amb = ambiguity_benchmark(args.ambiguity, seed=args.seed)
        print(f"ambiguity_trials={amb.trials}")
        print(f"augmented_success={amb.augmented_success!r}")
        print(f"single_shot_success={amb.single_shot_success!r}")
    return 0


def cmd_simcheck(args) -> int:
    from .geom import RigidTransform
    from .simworld import Box, SimObject, rest_pose_on_ground, standing_world, step

    failures = 0

    def report(name, ok):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        failures += not ok

    cfg = load_config(args.config)
    # determinism
    w1, w2 = standing_world(cfg), standing_world(cfg)
    for _ in range(200):
        step(w1, np.zeros(12))
        step(w2, np.zeros(12))
    report("determinism", np.array_equal(w1.robot.srb.as_vector(), w2.robot.srb.as_vector()))

    # momentum without gravity/contacts
    w = standing_world(cfg)
    w.gravity_enabled = False
    w.ground_enabled = False
    w.robot.srb.linear_velocity[:] = (0.05, -0.02, 0.01)
    w.robot.feet_vel[:] = w.robot.srb.linear_velocity
    p0 = cfg.robot.trunk_mass * w.robot.srb.linear_velocity.copy() \
        + 4 * cfg.robot.foot_mass * w.robot.srb.linear_velocity
    for _ in range(1000):
        step(w, np.zeros(12))
    p1 = cfg.robot.trunk_mass * w.robot.srb.linear_velocity \
        + cfg.robot.foot_mass * w.robot.feet_vel.sum(axis=0)
    report("linear momentum", float(np.max(np.abs(p1 - p0))) < 1e-6)

    # friction cone at every contact of a sliding box
    shape = Box((0.08, 0.06, 0.05))
    obj = SimObject.from_shape(shape, RigidTransform.identity())
    obj.pose = rest_pose_on_ground(shape, contact=cfg.contact, mass=obj.mass,
                                   gravity=cfg.sim.gravity)
    obj.linear_velocity[:] = (0.4, 0.1, 0.0)
    w = standing_world(cfg, objects=[obj])
    ok = True
    mu = min(obj.friction, cfg.contact.friction)
    for _ in range(300):
        step(w, np.zeros(12))
        for rec in w.contact_set:
            ok &= rec.tangential_force <= mu * rec.normal_force + 1e-9
    report("friction cone", ok)

    # stand equilibrium split
    from .mpc import ForceMpc, GaitSchedule
    w = standing_world(cfg)
    mpc = ForceMpc(cfg.mpc, cfg.robot.trunk_mass, np.diag(cfg.robot.trunk_inertia))
    res = mpc.step(w.robot.srb, (0, 0, 0, cfg.mpc.stand_height), w.robot.feet_pos,
                   GaitSchedule.stand(), 0.0)
    expected = cfg.robot.trunk_mass * cfg.sim.gravity / 4.0
    report("stand force split", bool(np.max(np.abs(res.forces[:, 2] - expected)) < 1e-3))

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


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="legpress",
                                description="desk-scale loco-manipulation benchmarks")
    p.add_argument("--config", default=None,
                   help="config file (defaults to $LEGPRESS_CONFIG, then built-ins)")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="run episodes of one task")
    pe.add_argument("--task", required=True, choices=[t for t in TASK_NAMES if t != "multi_step_1m"])
    pe.add_argument("--policy", required=True)
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
    pm.add_argument("--policy", default="planning")
    pm.add_argument("--runs", type=int, default=5)
    pm.add_argument("--seed", type=int, default=0)
    pm.add_argument("--reposition", choices=("teleport", "walk"), default="walk")
    pm.add_argument("--pose-source", choices=("ground_truth", "register"),
                    default="ground_truth")
    pm.add_argument("--y-correction", action="store_true")
    pm.set_defaults(fn=cmd_multistep)

    pr = sub.add_parser("regbench", help="registration synthetic suite")
    pr.add_argument("--cases", type=int, default=200)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--ambiguity", type=int, default=0,
                    help="also run N symmetric-ambiguity trials")
    pr.set_defaults(fn=cmd_regbench)

    ps = sub.add_parser("simcheck", help="simulator invariant suite")
    ps.set_defaults(fn=cmd_simcheck)

    pp = sub.add_parser("replay", help="recompute a trace summary")
    pp.add_argument("--trace", required=True)
    pp.set_defaults(fn=cmd_replay)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as e:  # machine-readable failure record
        json.dump({"error": type(e).__name__, "message": str(e)}, sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
