import xml.etree.ElementTree as ET

from qubit_spheres.gates import TrajectoryStep
from qubit_spheres.render import render_svg
from qubit_spheres.state import TwoQubitState


def step(s: TwoQubitState) -> TrajectoryStep:
    return TrajectoryStep(0, None, s)


def test_render_separable_inner_sphere_is_point():
    svg = render_svg(step(TwoQubitState.basis("00")), assignments=("A",))
    assert 'r="0.0000"' in svg


def test_render_single_assignment_height():
    one = render_svg(step(TwoQubitState.basis("00")), assignments=("A",))
    two = render_svg(step(TwoQubitState.basis("00")))
    assert one != two
    assert 'height="422"' in one
    assert 'height="798"' in two


def test_render_title_with_markup_characters_is_well_formed():
    for title in ("R&D", "a<b", "<&>"):
        svg = render_svg(step(TwoQubitState.basis("00")), assignments=("A",), title=title)
        root = ET.fromstring(svg.encode("utf-8"))
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert title in texts
