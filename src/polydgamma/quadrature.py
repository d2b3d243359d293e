"""Numerical integration: a float64 panel rule and an mpf Gauss-Legendre pair.

:func:`integrate_panels` applies the paired 7- and 15-point Gauss-Legendre
rules in float64, on fixed panels, to a whole array of integrands at once;
their difference serves as each panel's error.  :func:`integrate_gauss`
applies the paired 64- and 32-point rules at the working precision to the
integrals that are values in their own right, bisecting each panel until
the pair agrees.  Its claim extrapolates the pair's difference, as mp.quad's
estimate does, and adds a rounding allowance: an estimate, not a bound.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from mpmath import mp, mpf
from mpmath.libmp import (
    fzero,
    from_str,
    mpf_add,
    mpf_mul,
    mpf_shift,
    mpf_sub,
    round_nearest,
)

from .errors import ConvergenceError
from .specfun import rounding_unit

LOW_ORDER = 7
HIGH_ORDER = 15
# The most panels one call of an integrand of integrate_panels evaluates.
PANEL_BLOCK = 128
# The orders of integrate_gauss's pair, and the most panels it bisects into.
GAUSS_ORDER = 64
COMPANION_ORDER = 32
MAX_GAUSS_PANELS = 64

# The nonnegative nodes of the two rules with their weights, each the
# double nearest to mp.gauss_quadrature(order, "legendre"); the rules are
# symmetric.
_FLOAT_HALF_RULES = {
    LOW_ORDER: (
        (0.0, 0.4179591836734694),
        (0.4058451513773972, 0.3818300505051189),
        (0.7415311855993945, 0.27970539148927664),
        (0.9491079123427585, 0.1294849661688697),
    ),
    HIGH_ORDER: (
        (0.0, 0.2025782419255613),
        (0.20119409399743451, 0.19843148532711158),
        (0.3941513470775634, 0.1861610000155622),
        (0.5709721726085388, 0.16626920581699392),
        (0.7244177313601701, 0.13957067792615432),
        (0.8482065834104272, 0.10715922046717194),
        (0.937273392400706, 0.07036604748810812),
        (0.9879925180204854, 0.03075324199611727),
    ),
}


# The positive nodes of the two mpf rules with their weights, to 45
# decimals, each line "node weight"; the rules are symmetric and have no
# node at 0.
_MP_HALF_RULES = {
    COMPANION_ORDER: """
    0.048307665687738316234812570440502163690847252 0.096540088514727800566764830063575794736860631
    0.144471961582796493485186373598810652203845991 0.095638720079274859419082002204131100594890508
    0.239287362252137074544603209165501520608855422 0.093844399080804565639180237668117260036100076
    0.331868602282127649779916805730187996195775137 0.091173878695763884712868577111637062544861413
    0.421351276130635345364119436172426478335877289 0.087652093004403811142771462751802287548449722
    0.506899908932229390023747474377821230180283700 0.083311924226946755222199074604348611538746884
    0.587715757240762329040745476401826858450940115 0.078193895787070306471740918828306671039786798
    0.663044266930215200975115168663238368977022286 0.072345794108848506225399356478487791604336983
    0.732182118740289680387426665091267146630270484 0.065822222776361846837650063706938772877536447
    0.794483795967942406963097298970428902095479402 0.058684093478535547145283637300170886750120467
    0.849367613732569970133693004967742538954886793 0.050998059262376176196163244689521695260184777
    0.896321155766052123965307243719212268478996497 0.042835898022226680656878646606125528492810858
    0.934906075937739689170919134835409325528671432 0.034273862913021433102687732252372706994840203
    0.964762255587506430773811928118274960388895220 0.025392065309262059455752589789224029287554048
    0.985611511545268335400175044630901978632395714 0.016274394730905670605170562206386618179542964
    0.997263861849481563544981128665040727138537664 0.007018610009470096600407063738853182513377221
    """,
    GAUSS_ORDER: """
    0.024350292663424432508955842853715661426887109 0.048690957009139720383365390734749912442628692
    0.072993121787799039449542941940337493244126182 0.048575467441503426934799066783978113687556545
    0.121462819296120554470376463492247878218683638 0.048344762234802957169769527158017809703692551
    0.169644420423992818037313629748269844199990267 0.047999388596458307728126179871346069954316713
    0.217423643740007084149648748988822617578485831 0.047540165714830308662282206944223171640825251
    0.264687162208767416373964172510020117980413136 0.046968182816210017325326285754581075199897528
    0.311322871990210956157512698560156883557715358 0.046284796581314417295953249232261184969650308
    0.357220158337668115950442615046202531626264465 0.045491627927418144479770996971269058887323462
    0.402270157963991603695766771260158848713265206 0.044590558163756563060134710030944843294023800
    0.446366017253464087984947714758915189206750758 0.043583724529323453376827860973737480922788897
    0.489403145707052957478526307021921390849373297 0.042473515123653589007339767908817366165546648
    0.531279464019894545658013903544455247408525589 0.041262563242623528610156297473638047739930636
    0.571895646202634034283878116659188643183191006 0.039953741132720341386656926128336073918676951
    0.611155355172393250248852971018548918696124559 0.038550153178615629128962496946808991012787112
    0.648965471254657339857761231993404885529690433 0.037055128540240046040415101809583375083464945
    0.685236313054233242563558371031376301935641079 0.035472213256882383810693146715245947948094631
    0.719881850171610826848940217831947244758138003 0.033805161837141609391565482110725431021049926
    0.752819907260531896611863774885693985551714271 0.032057928354851553585467504347898716966221574
    0.783972358943341407610220525213768284056414125 0.030234657072402478867974059819548659158281398
    0.813265315122797559741923338086303340698141823 0.028339672614259483227511305200237351981207584
    0.840629296252580362751691544695873302982489824 0.026377469715054658671691792625225185675599331
    0.865999398154092819760783385070157502412501919 0.024352702568710873338177550409068987649978416
    0.889315445995114105853404038272851622429194462 0.022270173808383254159298330384155002422959291
    0.910522137078502805756380668008329861013488085 0.020134823153530209372340316728543897089526680
    0.929569172131939575821490154559225607347427014 0.017951715775697343085045302001119368897167357
    0.946411374858402816062481491347264795279394972 0.015726030476024719321965995297539794426029010
    0.961008799652053718918614121897157206762114611 0.013463047896718642598060766685955684108425772
    0.973326827789910963741853507352272668026145294 0.011168139460131128818590493019208135072778798
    0.983336253884625956931299302156831116945247507 0.008846759826363947723030914659730647695176266
    0.991013371476744320739382383443303113641349445 0.006504457968978362856117360399981266771131761
    0.996340116771955279346924500676399123209857506 0.004147033260562467635287535728551415313302819
    0.999305041735772139456905624345636311969712192 0.001783280721696432947296079144971933179959347
    """,
}


@lru_cache(maxsize=None)
def _mp_rule(order: int):
    """The positive half of the mpf rule as raw (node, weight) tuples,
    parsed from _MP_HALF_RULES on first use at 160 bits, past its 45
    decimals; the products that use them round to their own precision."""
    return tuple(
        tuple(from_str(v, 160, round_nearest) for v in line.split())
        for line in _MP_HALF_RULES[order].split("\n")
        if line.strip()
    )


@lru_cache(maxsize=None)
def _float_rule(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1] as float64 arrays."""
    x, w = np.array(_FLOAT_HALF_RULES[order]).T
    return np.concatenate([-x[:0:-1], x]), np.concatenate([w[:0:-1], w])


def integrate_panels(f, lo: float, hi: float, panels: int, ulps: float = 0.0):
    """Integrals over (lo, hi) of a family of integrands, in one float64 pass.

    ``f(t)`` evaluates every integrand of the family elementwise at a column
    of nodes ``t`` (shape (m, 1)), giving shape (m, K).  It is called once,
    on the 22 nodes of every panel, m = 22 * panels; past PANEL_BLOCK panels
    it is called once per block of PANEL_BLOCK, so its arrays hold at most
    22 * PANEL_BLOCK * K values.  Each of ``panels`` equal panels is
    estimated with the 7- and 15-point Gauss-Legendre rules.  Returns
    (value, error) arrays of shape (K,): the 15-point sums, and

        sum over panels of |G15 - G7| + (ulps + c) 2^-53 sum w |f|,

    ``ulps`` being the relative error of each value of ``f`` in units of
    2^-53, and c = HIGH_ORDER + panels + 16 counting the two sums and 16
    units for the weights, the products and the nodes: a node rounded to a
    double moves its value of f by about 2^-53 of the node times f', which
    the 16 units cover for integrands smooth on the scale of a panel, as
    |G15 - G7| already assumes.  The panels' sums are added in panel order.
    NaN in ``f`` makes the value and error NaN.
    """
    x7, w7 = _float_rule(LOW_ORDER)
    x15, w15 = _float_rule(HIGH_ORDER)
    nodes = np.concatenate([x7, x15])
    half = (hi - lo) / (2 * panels)
    value = error = size = 0.0
    for first in range(0, panels, PANEL_BLOCK):
        p = np.arange(first, min(first + PANEL_BLOCK, panels))
        t = (lo + half * (2 * p + 1))[:, None] + half * nodes
        y = f(t.reshape(-1, 1)).reshape(len(p), len(nodes), -1)
        g7, g15 = half * (w7 @ y[:, :LOW_ORDER]), half * (w15 @ y[:, LOW_ORDER:])
        sums = g15, abs(g15 - g7), half * (w15 @ abs(y[:, LOW_ORDER:]))
        # Each running total enters as the first panel's addend, so the
        # panels add in order across blocks.
        for rows, total in zip(sums, (value, error, size)):
            rows[0] += total
        value, error, size = (np.add.accumulate(rows, axis=0)[-1] for rows in sums)
    c = HIGH_ORDER + panels + 16
    return value, error + (ulps + c) * 2.0**-53 * size


def _gauss_pair(f, a, b, wp: int):
    """G64 and G32 of f on the panel [a, b] (raw tuples), as mpf at wp bits."""
    mid = mpf_shift(mpf_add(a, b, wp), -1)
    half = mpf_shift(mpf_sub(b, a, wp), -1)
    sums = []
    for order in (GAUSS_ORDER, COMPANION_ORDER):
        total = fzero
        for node, weight in _mp_rule(order):
            step = mpf_mul(half, node, wp)
            y = mpf_add(f(mpf_sub(mid, step, wp)), f(mpf_add(mid, step, wp)), wp)
            total = mpf_add(total, mpf_mul(weight, y, wp), wp)
        sums.append(mp.make_mpf(mpf_mul(half, total, wp)))
    return sums


def integrate_gauss(f, points, scale=None, wp=None):
    """Integral of f over points[0]..points[-1] at the working precision.

    ``f`` maps a raw mpf tuple (mpmath.libmp) to one, so that an integrand
    of many operations per node makes no mpf objects.  Its nodes and the
    sums are rounded to ``wp`` bits (default mp.prec); the stop and the
    rounding allowance follow mp.dps.  Each piece between consecutive
    ``points`` starts as one panel.  On a panel the GAUSS_ORDER-point
    Gauss-Legendre rule G64, exact to degree 127, and the
    COMPANION_ORDER-point G32, exact to degree 63, give d = |G64 - G32| and
    the panel's claim

        c = d^2 / max(|G64|, d),

    the squared-difference extrapolation that mp.quad's
    QuadratureRule.estimate_error applies to two successive levels (its
    2 D1 branch), taken relative to the panel's own size: on an analytic
    integrand G64's error is about the square of G32's relative error
    times the panel's integral.  Relative to the whole integral it falls
    short on small panels: a panel of 4e-14 of the integral whose pair
    differs by 4e-20 is 3e-27 off.  A panel is bisected while
    c > eps^2 S, eps = 10^-(ceil(dps/2) + 1), that is d > eps S for a
    panel as large as S; past MAX_GAUSS_PANELS panels ConvergenceError is
    raised.  S is ``scale``, a positive scale of the integral, or if None
    the sum of |G64| over the unbisected pieces.  Returns (value, error) as
    mpf: the sum of the final panels' G64, and over those panels

        sum of c + evaluations * rounding_unit() * sum of |G64|,

    evaluations counting the nodes of the G64s that make up the value.  f
    must keep one sign on each piece for the sum of |G64| to be the
    integral of |f|.  Neither term is a bound.  A feature narrower than the
    node spacing can escape both rules alike, so the caller cuts the pieces
    where the integrand changes its scale.  The table's 45 decimals lie far
    below the 10^-30 that rounding_unit() never passes.
    """
    wp = wp or mp.prec
    unit = rounding_unit()
    eps = mpf(10) ** -(math.ceil(mp.dps / 2) + 1)
    with mp.workprec(wp):
        points = [mpf(p)._mpf_ for p in points]
        pending = [(a, b, _gauss_pair(f, a, b, wp)) for a, b in zip(points, points[1:])]
        if scale is None:
            scale = sum(abs(g64) for _, _, (g64, _) in pending)
        target = eps * eps * scale
        panels = len(pending)
        pending.reverse()
        value = extrapolated = size = mpf(0)
        while pending:
            a, b, (g64, g32) = pending.pop()
            d = abs(g64 - g32)
            claim = d * d / max(abs(g64), d) if d else d
            if claim > target:
                panels += 1
                if panels > MAX_GAUSS_PANELS:
                    raise ConvergenceError(
                        f"Gauss-Legendre pair needs more than {MAX_GAUSS_PANELS} panels",
                        best=value,
                        error_estimate=float(claim),
                    )
                mid = mpf_shift(mpf_add(a, b, wp), -1)
                pending += [(mid, b, _gauss_pair(f, mid, b, wp)),
                            (a, mid, _gauss_pair(f, a, mid, wp))]
                continue
            value += g64
            extrapolated += claim
            size += abs(g64)
        return value, extrapolated + panels * 2 * GAUSS_ORDER * unit * size
