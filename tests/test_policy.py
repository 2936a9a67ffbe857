import math
import re

import numpy as np
import pytest
from scipy import stats

from legpress.geom import (PointCloud, RigidTransform, apply_transform, mean_distance, rot_z,
                           rotation_exp)
from legpress.policy import (
    ActorMap,
    CriticMap,
    NoPlanError,
    Observation,
    flow_baseline,
    load_maps,
    planning_baseline,
    random_location_baseline,
    select_greedy,
)
from legpress.sensing import full_scan
from legpress.simworld import Box, SimObject, rest_pose_on_ground


def make_box_obj(dims=(0.08, 0.08, 0.08), xy=(0.0, 0.0), yaw=0.0):
    shape = Box(dims)
    obj = SimObject.from_shape(shape, RigidTransform.identity())
    obj.pose = rest_pose_on_ground(shape, xy=xy, yaw=yaw)
    return obj


def observed(obj, n=400, seed=0):
    return full_scan(obj.shape, obj.pose, n, seed)


# -- selection ---------------------------------------------------------------


def test_greedy_single_point_single_channel():
    a = ActorMap(np.array([[[0.1, 0.0, 0.0]]]))
    c = CriticMap(np.array([[-1.0]]))
    act = select_greedy(a, c)
    assert act.contact_index == 0
    assert act.leg == "front_left"


def test_greedy_picks_max_q():
    a = ActorMap(np.arange(9, dtype=float).reshape(3, 1, 3))
    c = CriticMap(np.array([[-5.0], [-1.0], [-3.0]]))
    act = select_greedy(a, c)
    assert act.contact_index == 1
    assert np.allclose(act.motion_params, [3.0, 4.0, 5.0])


def test_greedy_two_channels_right_leg():
    n = 10
    q = np.full((n, 2), -10.0)
    q[7, 1] = -0.5
    a = ActorMap(np.zeros((n, 2, 3)))
    c = CriticMap(q)
    act = select_greedy(a, c)
    assert act.contact_index == 7
    assert act.leg == "front_right"


def test_greedy_tie_breaks_lowest_index_then_left():
    q = np.full((4, 2), -3.0)
    a = ActorMap(np.zeros((4, 2, 3)))
    act = select_greedy(a, CriticMap(q))
    assert act.contact_index == 0
    assert act.leg == "front_left"


def test_greedy_permutation_invariance():
    rng = np.random.default_rng(80)
    n = 50
    q = rng.uniform(-20.0, 0.0, size=(n, 2))
    m = rng.normal(size=(n, 2, 3))
    act = select_greedy(ActorMap(m), CriticMap(q))
    perm = rng.permutation(n)
    act_p = select_greedy(ActorMap(m[perm]), CriticMap(q[perm]))
    assert perm[act_p.contact_index] == act.contact_index
    assert np.array_equal(act_p.motion_params, act.motion_params)


def test_greedy_invariant_to_constant_q_shift():
    rng = np.random.default_rng(81)
    q = rng.uniform(-19.0, -1.0, size=(30, 1))
    m = rng.normal(size=(30, 1, 3))
    a1 = select_greedy(ActorMap(m), CriticMap(q))
    a2 = select_greedy(ActorMap(m), CriticMap(q + 0.9))
    assert a1.contact_index == a2.contact_index


# -- goal flow ----------------------------------------------------------------


def flow_of(cloud, goal):
    """The observation's goal flow and its mean magnitude."""
    obs = Observation(cloud, goal, make_box_obj(), 0)
    return obs.flow, mean_distance(obs.goal_cloud.points, cloud.points)


def test_goal_flow_identity_zero():
    cloud = PointCloud(np.random.default_rng(84).normal(size=(50, 3)))
    flow, mean = flow_of(cloud, RigidTransform.identity())
    assert not flow.any()
    assert mean == 0.0


def test_goal_flow_translation_exact():
    cloud = PointCloud(np.random.default_rng(85).normal(size=(50, 3)))
    t = RigidTransform(np.eye(3), [0.15, 0.0, 0.0])
    flow, mean = flow_of(cloud, t)
    assert np.allclose(flow, [0.15, 0.0, 0.0], rtol=0.0, atol=1e-12)
    assert abs(mean - 0.15) < 1e-12


def test_goal_flow_rotation_matches_brute_force_and_closed_form():
    # circle cloud about its centroid: mean flow = 2 sin(theta/2) * radius
    n, r, theta = 256, 0.2, 0.7
    ang = np.linspace(0, 2 * math.pi, n, endpoint=False)
    pts = np.column_stack([r * np.cos(ang), r * np.sin(ang), np.zeros(n)])
    cloud = PointCloud(pts + np.array([0.4, -0.2, 0.1]))
    t = RigidTransform.rotation_about(rot_z(theta), cloud.centroid)
    goal = apply_transform(t, cloud)
    flow, mean = flow_of(cloud, t)
    assert np.array_equal(flow, goal.points - cloud.points)
    brute = np.mean([np.linalg.norm(goal.points[i] - cloud.points[i]) for i in range(n)])
    assert abs(mean - brute) < 1e-15
    assert abs(mean - 2.0 * math.sin(theta / 2.0) * r) < 1e-9


def test_success_threshold_iff_reward():
    # success (mean flow < 0.03) iff reward > -0.03
    rng = np.random.default_rng(86)
    cloud = PointCloud(rng.normal(scale=0.05, size=(100, 3)))
    for _ in range(50):
        t = RigidTransform(rotation_exp(rng.normal(scale=0.1, size=3)),
                           rng.normal(scale=0.03, size=3))
        _, mean = flow_of(cloud, t)
        assert (mean < 0.03) == (-mean > -0.03)


# -- baselines ------------------------------------------------------------------


def push_goal(obj, dxy):
    d = np.array([dxy[0], dxy[1], 0.0])
    return RigidTransform(np.eye(3), d)


def flip_goal(obj, direction_y=-1.0):
    # 90 degree flip about the x axis: top travels toward direction_y
    angle = math.copysign(math.pi / 2.0, -direction_y)
    R = np.array([[1.0, 0, 0],
                  [0, math.cos(angle), -math.sin(angle)],
                  [0, math.sin(angle), math.cos(angle)]])
    return RigidTransform.rotation_about(R, obj.pose.translation)


def test_planning_push_contact_on_back_face():
    obj = make_box_obj()
    cloud = observed(obj)
    goal = push_goal(obj, (0.15, 0.0))
    act = planning_baseline(Observation(cloud, goal, obj, 0))
    contact = cloud.points[act.contact_index]
    # center of the -x face: x at the face, y,z near the centroid
    assert contact[0] < obj.pose.translation[0] - 0.03
    assert abs(contact[1] - obj.pose.translation[1]) < 0.02
    assert abs(contact[2] - obj.pose.translation[2]) < 0.02
    # motion points +x with a downward pitch
    m = act.motion_params
    assert m[0] > 0
    assert m[2] < 0
    assert abs(m[1]) < 1e-9
    assert abs(-m[2] / m[0] - math.tan(math.radians(16.0))) < 1e-9


def test_planning_flip_contact_top_edge():
    obj = make_box_obj()
    cloud = observed(obj)
    goal = flip_goal(obj, direction_y=-1.0)  # top travels toward -y
    act = planning_baseline(Observation(cloud, goal, obj, 0))
    contact = cloud.points[act.contact_index]
    # top edge of the +y face (the side opposite the flip direction)
    assert contact[2] > obj.pose.translation[2] + 0.03
    assert contact[1] > obj.pose.translation[1] + 0.03
    # motion horizontal toward -y
    m = act.motion_params
    assert m[1] < 0
    assert abs(m[2]) < 1e-9


def test_planning_flip_then_push_decomposition():
    obj = make_box_obj()
    cloud = observed(obj)
    d = np.array([0.12, 0.03, 0.0])
    angle = math.pi / 2.0
    R = np.array([[1.0, 0, 0],
                  [0, math.cos(angle), -math.sin(angle)],
                  [0, math.sin(angle), math.cos(angle)]])
    rel = RigidTransform(R, d - R @ obj.pose.translation + obj.pose.translation)
    act = planning_baseline(Observation(cloud, rel, obj, 0))
    # flip executes first: horizontal motion, top-edge contact
    assert abs(act.motion_params[2]) < 1e-9
    assert cloud.points[act.contact_index][2] > obj.pose.translation[2] + 0.03


def test_planning_no_plan_for_zero_goal():
    obj = make_box_obj()
    cloud = observed(obj)
    with pytest.raises(NoPlanError):
        planning_baseline(Observation(cloud, RigidTransform.identity(), obj, 0))


def test_the_goal_cloud_is_the_observed_cloud_mapped_by_the_goal():
    obj = make_box_obj()
    cloud = observed(obj)
    goal = flip_goal(obj)
    obs = Observation(cloud, goal, obj, 0)
    assert np.array_equal(obs.goal_cloud.points, apply_transform(goal, cloud).points)
    assert np.array_equal(obs.goal_cloud.normals, apply_transform(goal, cloud).normals)


def test_flow_baseline_pure_translation_everywhere():
    obj = make_box_obj()
    cloud = observed(obj)
    goal = push_goal(obj, (0.15, 0.0))
    assert np.allclose(Observation(cloud, goal, obj, 0).flow, [0.15, 0.0, 0.0])
    act = flow_baseline(Observation(cloud, goal, obj, 0))
    assert np.allclose(act.motion_params, [0.15, 0.0, 0.0])


def test_flow_baseline_flip_matches_rigid_motion():
    obj = make_box_obj()
    cloud = observed(obj)
    goal = flip_goal(obj)
    act = flow_baseline(Observation(cloud, goal, obj, 0))
    i = act.contact_index
    expect = apply_transform(goal, cloud).points[i] - cloud.points[i]
    assert np.max(np.abs(act.motion_params - expect)) < 1e-9


def test_flow_baseline_rotation_equivariance():
    obj = make_box_obj()
    cloud = observed(obj)
    goal = push_goal(obj, (0.12, -0.04))
    act = flow_baseline(Observation(cloud, goal, obj, 0))
    R = rot_z(0.6)
    w = RigidTransform(R, np.zeros(3))
    obj2 = make_box_obj()
    obj2.pose = RigidTransform(R @ obj.pose.rotation, R @ obj.pose.translation)
    cloud2 = apply_transform(w, cloud)
    rel2 = RigidTransform(R @ goal.rotation @ R.T, R @ goal.translation)
    act2 = flow_baseline(Observation(cloud2, rel2, obj2, 0))
    assert np.max(np.abs(act2.motion_params - R @ act.motion_params)) < 1e-9


def test_random_location_single_point():
    cloud = PointCloud([[0.1, 0.2, 0.3]])
    goal = RigidTransform(np.eye(3), [0.1, 0, 0])
    act = random_location_baseline(Observation(cloud, goal, None, 1))
    assert act.contact_index == 0


def test_random_location_uniformity_chi_square():
    obj = make_box_obj()
    cloud = observed(obj, n=400)
    goal = push_goal(obj, (0.1, 0.0))
    counts = np.zeros(400)
    for s in range(10000):
        act = random_location_baseline(Observation(cloud, goal, obj, s))
        counts[act.contact_index] += 1
    chi2 = float(np.sum((counts - 25.0) ** 2 / 25.0))
    assert chi2 < stats.chi2.ppf(0.99, df=399)


def test_random_location_deterministic_per_seed():
    obj = make_box_obj()
    cloud = observed(obj)
    goal = push_goal(obj, (0.1, 0.0))
    a = random_location_baseline(Observation(cloud, goal, obj, 42))
    b = random_location_baseline(Observation(cloud, goal, obj, 42))
    assert a.contact_index == b.contact_index
    assert np.array_equal(a.motion_params, b.motion_params)


# -- map interchange ---------------------------------------------------------------


def save_maps(actor: ActorMap, critic: CriticMap, path: str) -> None:
    """Writes the columnar text format that load_maps reads."""
    n, ch = critic.q_values.shape
    with open(path, "w") as fh:
        fh.write(f"# legpress maps v1 points={n} channels={ch}\n")
        fh.write("# point_index leg_channel mx my mz q\n")
        for i in range(n):
            for c in range(ch):
                m = actor.motion_params[i, c]
                fh.write(f"{i} {c} {float(m[0])!r} {float(m[1])!r} {float(m[2])!r} "
                         f"{float(critic.q_values[i, c])!r}\n")


def test_maps_roundtrip(tmp_path):
    rng = np.random.default_rng(87)
    actor = ActorMap(rng.normal(size=(25, 2, 3)))
    critic = CriticMap(rng.uniform(-20, 0, size=(25, 2)))
    path = tmp_path / "maps.txt"
    save_maps(actor, critic, str(path))
    a2, c2 = load_maps(str(path))
    assert np.array_equal(a2.motion_params, actor.motion_params)
    assert np.array_equal(c2.q_values, critic.q_values)
    # selection is identical through the roundtrip
    s1 = select_greedy(actor, critic)
    s2 = select_greedy(a2, c2)
    assert s1.contact_index == s2.contact_index
    assert s1.leg == s2.leg
    assert np.array_equal(s1.motion_params, s2.motion_params)


def test_critic_clamp_enforced():
    with pytest.raises(ValueError):
        CriticMap(np.array([[1.0]]))
    with pytest.raises(ValueError):
        CriticMap(np.array([[-25.0]]))


@pytest.mark.parametrize("make, values, message", [
    (CriticMap, np.full(3, -1.0), "critic map must be (n, 1|2)"),
    (CriticMap, np.full((3, 3), -1.0), "critic map must be (n, 1|2)"),
    (ActorMap, np.zeros((3, 3)), "actor map must be (n, 1|2, 3)"),
    (ActorMap, np.zeros((3, 3, 3)), "actor map must be (n, 1|2, 3)"),
    (ActorMap, np.zeros((3, 1, 2)), "actor map must be (n, 1|2, 3)"),
], ids=["critic_1d", "critic_3_channels", "actor_2d", "actor_3_channels", "actor_2_params"])
def test_maps_take_one_shape_with_a_leg_channel_axis(make, values, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make(values)


def test_critic_rejects_a_q_value_that_is_not_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="q values must be finite"):
            CriticMap(np.array([[bad], [-0.5]]))


@pytest.mark.parametrize("line", [
    "0 0 0.1 0.0",  # four fields
    "0 0 0.1 0.0 0.0 -1.0 7",  # seven fields
    "-1 0 0.1 0.0 0.0 -0.5",  # would overwrite point 0
    "1 2 0.1 0.0 0.0 -0.5",  # a third leg channel
    "1 0 nan 0.0 0.0 -0.5",
    "1 0 0.1 0.0 0.0 inf",
    "1 x 0.1 0.0 0.0 -0.5",
    "1.5 0 0.1 0.0 0.0 -0.5",
])
def test_load_maps_names_the_line_of_a_malformed_entry(tmp_path, line):
    path = tmp_path / "maps.txt"
    path.write_text("# point_index leg_channel mx my mz q\n0 0 0.1 0.0 0.0 -1.0\n" + line + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path} line 3: ") + ".*" + re.escape(line)):
        load_maps(str(path))


def test_load_maps_rejects_an_entry_given_twice(tmp_path):
    path = tmp_path / "maps.txt"
    path.write_text("0 0 0.1 0.0 0.0 -5.0\n1 0 0.1 0.0 0.0 -2.0\n0 0 0.2 0.0 0.0 -1.0\n")
    with pytest.raises(ValueError, match=re.escape(f"{path} line 3: point 0 channel 0 given again")):
        load_maps(str(path))
