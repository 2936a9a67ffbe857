"""Test helper: a leg or trunk in a new pose.

`LegModel.joint_angles` and `SrbState.rpy` are tuples, written together
with the rows derived from them. A test that needs other angles builds a new
leg or trunk, which derives its rows in the constructor.
"""
import dataclasses

from legpress.simworld import LegModel


def posed(body, angles):
    """The leg with these joint angles, or the trunk with this rpy, as a new
    object through `dataclasses.replace`; the rest of its state is kept."""
    name = "joint_angles" if isinstance(body, LegModel) else "rpy"
    return dataclasses.replace(body, **{name: angles})
