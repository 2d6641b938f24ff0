import math
import xml.etree.ElementTree as ET

from conftest import entangler_60_70_state
from qubit_spheres.gates import TrajectoryStep
from qubit_spheres.render import RADIUS, render_svg
from qubit_spheres.state import TwoQubitState


def step(s: TwoQubitState) -> TrajectoryStep:
    return TrajectoryStep(0, None, s)


def test_render_bell_inner_sphere_matches_outer():
    # |b| = 1: the inner entanglement sphere coincides with the outer one.
    svg = render_svg(step(TwoQubitState.bell("phi+")), assignments=("A",))
    assert svg.count(f'r="{RADIUS:.4f}"') >= 3   # base, outer ent, inner ent


def test_render_separable_inner_sphere_is_point():
    svg = render_svg(step(TwoQubitState.basis("00")), assignments=("A",))
    assert 'r="0.0000"' in svg


def test_render_entangled_state_radii():
    # Inner sphere radius |b| = sin(60 deg); concurrence circle radius 0.4967.
    svg = render_svg(step(entangler_60_70_state()), assignments=("A",))
    want = RADIUS * math.sin(math.radians(60))
    assert f'r="{want:.4f}"' in svg
    assert "chi=35.0000deg" in svg
    assert "c=0.4967" in svg


def test_render_labels_and_tags():
    svg = render_svg(step(entangler_60_70_state()))
    for tag in ("BASE(A)", "ENTANGLEMENT(A)", "FIBER(B)",
                "BASE(B)", "ENTANGLEMENT(B)", "FIBER(A)"):
        assert tag in svg
    assert "theta=" in svg and "phi=" in svg and "xi=" in svg


def test_render_single_assignment_height():
    one = render_svg(step(TwoQubitState.basis("00")), assignments=("A",))
    two = render_svg(step(TwoQubitState.basis("00")))
    assert one != two
    assert 'height="422"' in one
    assert 'height="798"' in two


def test_render_title_escaped_content():
    svg = render_svg(step(TwoQubitState.basis("00")), assignments=("A",), title="basis |00>")
    assert "basis |00&gt;" in svg or "basis |00>" in svg


def test_render_title_with_markup_characters_is_well_formed():
    for title in ("R&D", "a<b", "<&>"):
        svg = render_svg(step(TwoQubitState.basis("00")), assignments=("A",), title=title)
        root = ET.fromstring(svg.encode("utf-8"))
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert title in texts
