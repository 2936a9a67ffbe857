"""Stack configuration: dataclass defaults plus a key-value config file loader.

File format is INI (configparser): one section per subsystem, keys matching
the dataclass field names. Vector values are comma-separated. Only keys that
appear in the file override the defaults; an unknown section or key is an
error. The file path can come from the CLI flag or the LEGPRESS_CONFIG
environment variable.

`check_config` is the one range check: a value the stack divides or counts
by must be positive, and a few values must lie in their range (see its
docstring). `load_config` runs it on the file's values, and
`simworld.standing_world` on every config a world is built from, so a config
made or edited in code is checked before its first tick.

The `[camera]` section is the trunk camera itself: sensing mounts it with
`camera_pose` and renders through the world's config, so the camera has no
object of its own.

Schema (all values SI):

    [sim]        dt, gravity
    [robot]      trunk_mass, trunk_inertia (3), hip_offset_x, hip_offset_y,
                 abduction_offset, thigh_length, calf_length, foot_mass,
                 foot_radius, hip_roll_limits (2), hip_pitch_limits (2),
                 knee_limits (2)
    [contact]    k_normal, d_normal, friction
    [camera]     width, height, horizontal_fov_deg, offset (3), pitch_deg,
                 object_points
    [mpc]        horizon, state_weights (13), force_weight, friction, f_min,
                 f_max, force_update_period, stand_height
    [swing]      kp, kd, pre_contact_distance, lift_clearance, push_speed,
                 approach_threshold, max_motion_norm
    [gait]       trot_period, trot_duty, raibert_velocity_gain
    [orchestrator] com_shift_factor, com_shift_duration, timeout_manipulation,
                 timeout_walking, standoff_distance
"""
from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, fields

ENV_CONFIG_VAR = "LEGPRESS_CONFIG"


@dataclass
class SimConfig:
    dt: float = 0.001
    gravity: float = 9.81


@dataclass
class RobotConfig:
    # Go1-like public-spec approximations; never asserted in tests
    trunk_mass: float = 12.0
    trunk_inertia: tuple = (0.07, 0.26, 0.24)
    hip_offset_x: float = 0.19
    hip_offset_y: float = 0.047
    abduction_offset: float = 0.08
    thigh_length: float = 0.213
    calf_length: float = 0.213
    foot_mass: float = 0.1
    foot_radius: float = 0.02
    hip_roll_limits: tuple = (-0.86, 0.86)
    hip_pitch_limits: tuple = (-1.6, 2.4)
    knee_limits: tuple = (-2.7, -0.05)


@dataclass
class ContactConfig:
    k_normal: float = 1e4
    d_normal: float = 100.0
    friction: float = 0.5


@dataclass
class CameraConfig:
    width: int = 80
    height: int = 60  # table value 721 treated as typo, see decisions
    horizontal_fov_deg: float = 71.36
    offset: tuple = (0.24, 0.0, 0.14)
    pitch_deg: float = 65.0
    object_points: int = 400


@dataclass
class MpcConfig:
    horizon: int = 10  # model step: sim dt * force_update_period
    state_weights: tuple = (0.25, 0.25, 10.0, 50.0, 50.0, 50.0,
                            0.0, 0.0, 0.3, 0.2, 0.2, 0.2, 0.0)
    force_weight: float = 1e-6
    friction: float = 0.4
    f_min: float = 1.0
    f_max: float = 120.0
    force_update_period: int = 50  # sim steps between QP re-solves
    stand_height: float = 0.28


@dataclass
class SwingConfig:
    kp: float = 450.0
    kd: float = 10.0
    pre_contact_distance: float = 0.06
    lift_clearance: float = 0.08
    push_speed: float = 0.25
    approach_threshold: float = 0.01
    max_motion_norm: float = 0.35


@dataclass
class GaitConfig:
    trot_period: float = 0.5
    trot_duty: float = 0.5
    raibert_velocity_gain: float = 0.03


@dataclass
class OrchestratorConfig:
    com_shift_factor: float = 0.7
    com_shift_duration: float = 0.8
    timeout_manipulation: float = 5.0
    timeout_walking: float = 15.0
    standoff_distance: float = 0.15


@dataclass
class StackConfig:
    sim: SimConfig = field(default_factory=SimConfig)
    robot: RobotConfig = field(default_factory=RobotConfig)
    contact: ContactConfig = field(default_factory=ContactConfig)
    camera: CameraConfig = field(default_factory=CameraConfig)
    mpc: MpcConfig = field(default_factory=MpcConfig)
    swing: SwingConfig = field(default_factory=SwingConfig)
    gait: GaitConfig = field(default_factory=GaitConfig)
    orchestrator: OrchestratorConfig = field(default_factory=OrchestratorConfig)


def _coerce(section: str, key: str, raw: str, current):
    if isinstance(current, int):
        return int(raw)
    if isinstance(current, float):
        return float(raw)
    if isinstance(current, tuple):
        values = tuple(float(v) for v in raw.replace(",", " ").split())
        if len(values) != len(current):
            raise ValueError(f"config [{section}] {key} needs {len(current)} values, "
                             f"got {len(values)}")
        return values
    return raw


# values the stack divides by, inverts or counts steps with (each component)
_POSITIVE = (("sim", "dt"), ("robot", "trunk_mass"), ("robot", "trunk_inertia"),
             ("robot", "thigh_length"), ("robot", "calf_length"), ("robot", "foot_mass"),
             ("contact", "k_normal"), ("camera", "width"), ("camera", "height"),
             ("camera", "object_points"), ("mpc", "horizon"), ("mpc", "force_update_period"),
             ("gait", "trot_period"))
# a negative damper or friction coefficient feeds energy into a contact, and
# a negative swing stiffness or damping pushes the foot away from its target
_NON_NEGATIVE = (("contact", "d_normal"), ("contact", "friction"), ("swing", "kp"),
                 ("swing", "kd"))


def check_config(cfg: StackConfig) -> None:
    """Raise ValueError when a value is out of its range: a value named in
    `_POSITIVE` not positive (the IK divides by the link lengths), one in
    `_NON_NEGATIVE` negative, a `[robot]` joint-limit pair whose low limit
    is not below its high limit (the IK clamps into it),
    `camera.horizontal_fov_deg` outside (0, 180) or `gait.trot_duty`
    outside (0, 1]."""
    for keys, word, ok in ((_POSITIVE, "positive", lambda v: v > 0),
                           (_NON_NEGATIVE, "non-negative", lambda v: v >= 0)):
        for section, key in keys:
            value = getattr(getattr(cfg, section), key)
            if not all(map(ok, value if isinstance(value, tuple) else (value,))):
                raise ValueError(f"config [{section}] {key} must be {word}, got {value!r}")
    for key in ("hip_roll_limits", "hip_pitch_limits", "knee_limits"):
        lo, hi = getattr(cfg.robot, key)
        if not lo < hi:
            raise ValueError(f"config [robot] {key} must have low < high, got {(lo, hi)!r}")
    fov = cfg.camera.horizontal_fov_deg
    if not 0.0 < fov < 180.0:
        raise ValueError(f"config [camera] horizontal_fov_deg must be in (0, 180), got {fov!r}")
    duty = cfg.gait.trot_duty
    if not 0.0 < duty <= 1.0:
        raise ValueError(f"config [gait] trot_duty must be in (0, 1], got {duty!r}")


def load_config(path: str | None = None) -> StackConfig:
    """Build a StackConfig from defaults, overridden by the file when given.

    With path=None the LEGPRESS_CONFIG environment variable is consulted;
    when that is unset too, pure defaults are returned. A file that
    configparser cannot parse (a key before any section, a key or section
    given twice), an unknown section or key, a malformed value or a value
    that fails `check_config` raises ValueError; a path that cannot be opened
    raises the OSError of `open`.
    """
    cfg = StackConfig()
    if path is None:
        path = os.environ.get(ENV_CONFIG_VAR)
    if not path:
        return cfg
    parser = configparser.ConfigParser()
    with open(path) as fh:
        try:
            parser.read_file(fh, source=path)
        except configparser.Error as e:  # its message names the file and the line
            raise ValueError(" ".join(str(e).split())) from None
    known = {f.name for f in fields(cfg)}
    for section in parser.sections():
        if section not in known:
            raise ValueError(f"unknown config section [{section}]")
    for section_field in fields(cfg):
        if not parser.has_section(section_field.name):
            continue
        sub = getattr(cfg, section_field.name)
        valid = {f.name for f in fields(sub)}
        for key, raw in parser.items(section_field.name):
            if key not in valid:
                raise ValueError(f"unknown config key [{section_field.name}] {key}")
            setattr(sub, key, _coerce(section_field.name, key, raw, getattr(sub, key)))
    check_config(cfg)
    return cfg

