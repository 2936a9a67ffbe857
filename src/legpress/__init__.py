"""Desk-scale quadruped loco-manipulation stack.

Subpackages: geom (math primitives), simworld (rigid-body sim), sensing
(synthetic depth), qpsolve (dense QP), mpc (stance force controller),
swingctl (manipulation leg), policy (observations, actions and baselines),
register (pose estimation), orchestrator (manipulation state machine and
episode loop), harness (tasks, named policies and evaluation protocols), cli
(command-line entry point).
"""

__version__ = "0.1.0"
