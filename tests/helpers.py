"""Shared generators for the test suite."""

import numpy as np

from ginfo.states import CanonicalTwoModeParams, canonical_two_mode_matrix
from ginfo.symplectic import build_symplectic_form, symplectic_spectrum

FORM2 = build_symplectic_form(2)


def random_valid_canonical(rng, margin=1e-6):
    """Random canonical parameters of a physically admissible two-mode state."""
    while True:
        a, b = rng.uniform(0.55, 2.5, size=2)
        c, d = rng.uniform(-1.0, 1.0, size=2)
        p = CanonicalTwoModeParams(a, b, c, d)
        m = canonical_two_mode_matrix(p)
        if np.linalg.eigvalsh(m).min() < margin:
            continue
        if symplectic_spectrum(m, FORM2).min() < 1.0 + margin:
            continue
        return p


# Canonical square-root points, each as ((a, b, c, d), 4x4 SPD square root,
# and None or (target (a0, b0, c0, d0), ascending generalized eigenvalues,
# distance)). Written by ``tests/reference/canonical_sqrt.py`` from the
# matrices built entry by entry in mpmath 1.3 at 80 digits and printed to 60:
# the root from mpmath's symmetric eigensolver, squared back to 1e-70, and
# the eigenvalues of ``R^-1 S0 R^-1``. No code of ginfo is involved.
CANONICAL_SQRT_REFERENCES = [
    ((1000000.0, 1.0, 0.3, 0.2),
     ((9.99999999999955089865175740424039007086184050927594401634923e+2,
       0.0,
       2.9970029971375927037751069846174550692817754830530632412378e-4,
       0.0),
      (0.0,
       9.99999999999980039940079103110450124143568821219827708577836e+2,
       0.0,
       1.9980019980418783529099886591702074388103432532234939729925e-4),
      (2.9970029971375927037751069846174550692817754830530632412378e-4,
       0.0,
       9.99999955089864167281282242489174543457933817987557463352016e-1,
       0.0),
      (0.0,
       1.9980019980418783529099886591702074388103432532234939729925e-4,
       0.0,
       9.9999998003993987990130965314309400946121087321318745075928e-1)),
     ((1.2, 0.9, 0.1, -0.1),
      (1.18888882137159389162732552800192682223353335974380130483777e-6,
       1.18888895347045497310951793029615922449241375089417818999404e-6,
       9.0000003211115644175932796791582137947725189056518080766014e-1,
       9.00000087111229690612575382215951911677780688253306335153207e-1),
      1.36428982364007840603025254213975701392536934063460241140576e+1)),
    ((2.0, 1.0, 0.0, 0.3),
     ((1.41421356237309504880168872420969807856967187537694807317668,
       0.0,
       0.0,
       0.0),
      (0.0,
       1.40868236026863440908061320515032255873514161223990621555467,
       0.0,
       1.24956023736310100329920512328609694101632769119650125466398e-1),
      (0.0,
       0.0,
       1.0,
       0.0),
      (0.0,
       1.24956023736310100329920512328609694101632769119650125466398e-1,
       0.0,
       9.92162281147600725899872095426172597494262784802611149747372e-1)),
     None),
]


# Canonical states at the PPT edge, each as ((a, b, c, d), nu~_-), the
# smaller symplectic invariant of the mirror-reflected state (a, b, c, -d).
# Written by ``tests/reference/canonical_ppt_edge.py`` from the matrices built
# entry by entry in mpmath 1.3 at 80 digits and printed to 40: the eigenvalues
# of Omega^T Sigma~ from mpmath's general eigensolver, equal to the closed form
# to 1e-60. |nu~_- - 1| runs from 1e-3 down to 1e-12. No code of ginfo is
# involved.
CANONICAL_PPT_EDGE_REFERENCES = [
    ((1.0, 1.0, 0.4, -0.5824995833333333),
     1.001000000000000030001956445158097050473),
    ((1.2, 0.8, 0.5, -0.4138872462343604),
     9.989999999999999769129967894110331743329e-1),
    ((0.9, 1.3, -0.45, 0.6596797364796647),
     1.000010000000000016250573032286307113273),
    ((2.0, 0.7, 0.6, -0.489467854892561),
     9.999989999999999944752372129439343021485e-1),
    ((0.50000001, 0.50000001, 1e-09, 1.1000000028495185e-08),
     1.000000010000000000000000783942844463174),
    ((1.5, 1.1, -0.6, 0.9042246290404188),
     9.999999997000000253748846360073315313021e-1),
    ((0.75, 0.75, 0.35, -0.12499999998750004),
     1.000000000009999995276238587467468345361),
    ((1.7, 0.6, 0.45, -0.21096329973660968),
     9.999999999990000011782460370649563463411e-1),
]


# Graded SPD pairs, each as (rows of B1, exponents k1, rows of B2, exponents
# k2, ascending generalized eigenvalues), with Sigma_i = D_i (B_i B_i^T + I)
# D_i and D_i = diag(2^k_i), exact in float64 (``graded_spd``). Written by
# ``tests/reference/geneig_graded.py`` from the same matrices in mpmath 1.3
# at 100 digits and printed to 50: the eigenvalues of L1^-1 Sigma2 L1^-T,
# which a whitening by Sigma1^-1/2 reproduces to 1e-60. No code of ginfo is
# involved.
GENEIG_GRADED_REFERENCES = [
    # 4x4, exponents within +-4
    (((1, 3, -1, 1),
      (-3, 1, 2, 3),
      (-2, -1, -3, 0),
      (0, 2, -2, -3)),
     (3, -4, 4, -1),
     ((-3, -3, -2, 3),
      (3, 1, 1, 0),
      (3, 2, -1, 1),
      (-3, 0, -3, -2)),
     (0, 2, -3, 0),
     (2.7622161709156693466650597147457122619729056640104e-5,
      1.6054306580611704532451371140189492768979115411701e-2,
      3.2523218981176350665752210807458290567332578549328,
      3.0554540697009645238734923279515987535734669982073e+3)),
    # 4x4, exponents within +-8
    (((2, 1, -3, 1),
      (0, -1, -2, 3),
      (-1, -1, -1, 1),
      (-3, -2, -2, 2)),
     (2, -5, -8, 5),
     ((2, 1, -1, -2),
      (1, 2, -2, 0),
      (2, -1, 1, 0),
      (3, 2, -1, 1)),
     (2, -6, -8, -5),
     (1.877786331595069207286229327641380716791007356814e-7,
      2.2885470574572066979601160246463393999754008927385e-1,
      7.8303046179760541292381855649364302550323058980355e-1,
      6.3982222335235386247829999249865042465258380318544)),
    # 4x4, exponents within +-12
    (((0, 0, -1, 0),
      (-1, 1, -1, 2),
      (2, -2, 2, -2),
      (3, -2, 1, -1)),
     (1, 9, -5, -6),
     ((0, -1, 0, 2),
      (3, 1, -1, 1),
      (0, 2, 2, 0),
      (-1, 3, 3, 2)),
     (10, 3, -1, -3),
     (3.7616091336359692589838999470450590164784481770028e-4,
      7.8417078556735749395416281937191194795775476497687e+1,
      4.8913939551334274892113532025412702879048724935779e+2,
      9.4669742289626965917975318916608535373857450229297e+5)),
    # 8x8, exponents within +-4
    (((1, -2, 2, -2, -1, 1, -1, -3),
      (2, -2, -3, 3, -1, 1, -3, 1),
      (1, -1, 3, 0, 2, 3, 3, 2),
      (1, -3, 2, 0, 2, -3, -2, 3),
      (1, 0, 1, 3, -1, -1, 0, 3),
      (1, -2, -2, 3, 0, 1, -3, 2),
      (-1, 3, -3, -2, 0, 1, 0, -3),
      (-2, 0, -3, 0, -2, 3, -1, 3)),
     (0, -4, 1, 1, -4, 3, 3, -3),
     ((-1, 0, 3, 0, 1, 2, -2, -3),
      (-2, -1, 0, 0, -3, -2, -2, 0),
      (2, -3, -3, 0, -3, -2, -2, 2),
      (1, -1, -3, 2, 2, 1, -2, 3),
      (3, 3, 3, 2, -1, 1, 1, -1),
      (-2, 1, -1, -2, 1, -2, -2, 2),
      (1, 1, 3, -2, -2, 0, -3, 1),
      (-2, -1, 2, 1, -2, -2, -2, -1)),
     (2, -1, 0, -4, 2, 0, -4, 2),
     (1.6649747418263361773146130526730886940209013352488e-5,
      8.4038748719221900802292520132067688696640911960426e-4,
      8.1492033020278101860872374336197851060423320732677e-3,
      2.0027383121852372458825222780639863703426534538883e-1,
      8.3082143092148205871915293685358119475547778720384,
      9.7984791100875191239783731465100806812097478006456e+1,
      1.6849581295933286555507937726132051266145908567714e+3,
      3.7139855049342264900330282283787246806305888706713e+4)),
    # 8x8, exponents within +-8
    (((3, -1, 3, 2, -3, 0, -1, -3),
      (0, 2, 3, 0, 1, -3, 0, -3),
      (-2, -3, 1, 2, 0, 1, 3, -2),
      (1, -3, -2, -3, 0, 1, 3, -1),
      (-3, 1, 3, -3, -1, -2, 1, 0),
      (-1, 2, 3, 3, 0, 2, 0, 0),
      (-3, -2, 2, -3, -2, -3, 1, 1),
      (-3, -3, -3, -1, 2, -2, -1, -3)),
     (6, 3, 4, -2, -7, 8, -8, -5),
     ((1, 3, 0, -1, -1, -3, 0, -2),
      (-1, -3, -3, 2, 0, 0, 2, -2),
      (1, 1, -1, -1, 0, -3, -3, 1),
      (3, 1, -2, 0, -3, -1, -2, 0),
      (2, -1, 3, 0, 2, -2, 1, 2),
      (2, 3, -2, 1, -1, 2, -2, -1),
      (-1, -3, -3, 2, 2, -3, -2, -3),
      (1, -1, 3, 1, 2, 0, 2, -2)),
     (-4, -4, -4, -1, -6, -5, 2, -7),
     (5.0632257166133632174328020534235671028888121103455e-9,
      2.9699286056370874275466310314739181265354061051745e-7,
      1.3086491510646851968122947572407612987447715661187e-6,
      3.4920232688262846820138004752518483623909240363822e-5,
      4.1158884061580709483084643646425281404651997742448e-2,
      4.7685311269515169852915854322906605932731290352126,
      1.2705371322113357710678541949239495343886626346942e+1,
      1.1382863171807339589703399013846267715822272429338e+7)),
    # 8x8, exponents within +-12
    (((3, 3, 3, -2, -3, 1, -3, -1),
      (1, 0, -3, 1, -2, -1, -2, 3),
      (3, 3, -1, 3, -3, 3, -1, -2),
      (-3, -2, -1, 0, 2, -2, 3, -3),
      (-2, -2, 1, 1, -2, 2, -2, -1),
      (1, 2, 1, -2, 2, -1, 2, 2),
      (3, 3, 1, 1, 1, 1, -3, -2),
      (0, -2, 1, -1, 0, 1, 0, -1)),
     (8, 10, -12, -9, 2, -11, -5, 10),
     ((0, 0, 0, 1, -2, 1, 3, 1),
      (-1, -3, 0, 2, 2, 0, -2, -2),
      (-2, -3, -3, 2, -1, 0, 0, -2),
      (1, 2, 3, -2, -3, 3, -2, 1),
      (-3, -3, 0, -2, 0, -3, -3, 1),
      (-1, 1, -1, -1, -2, 2, 0, -3),
      (-2, 0, -1, 0, -1, -1, 0, -1),
      (-1, -2, 2, -3, -1, 3, 0, -2)),
     (-8, 9, -11, 8, -9, 1, -2, 8),
     (1.9290902623439270293949219602866518796349875358292e-11,
      1.5917867962905433806735714029195875438866219297041e-7,
      6.5711354928288526655963727638507028908328674993671e-2,
      3.6388213254542402103982043112484629466706454783277e-1,
      2.1002372722807849478961041821877056520221577466815,
      2.3067526355171969983338435534778308383141424556186e+1,
      6.8591755011718424020240887133926968352760195420357e+7,
      1.3220928429016067376773276942566687936083657270428e+11)),
]


def graded_spd(rows, exponents) -> np.ndarray:
    """``D (B B^T + I) D`` with ``D = diag(2^exponents)``, every entry exact."""
    b = np.array(rows, dtype=float)
    scale = np.ldexp(1.0, np.array(exponents))
    return (b @ b.T + np.eye(len(b))) * np.outer(scale, scale)


# ---------------------------------------------------------------------------
# Hermitian route for the Bopp-shifted pair of the sweeps
#
# Built with numpy alone from the formulas in the docstrings of
# ``ginfo.bipartite`` (``pair_cvm``, ``bopp_shift``) and of its party basis
# ``Ordering.PARTY_BLOCK_XP``, whose form and reflection of party B's momenta
# are written out below. It shares no code with ``symplectic_spectrum``, with
# ``build_symplectic_form`` or with the bipartite builders it checks. The
# reflected deformed state ``R S Sigma S^T R`` satisfies the uncertainty
# relation with respect to the deformed form ``S Omega S^T`` exactly when
# ``R S Sigma S^T R + (i/2) S Omega S^T`` is positive semidefinite, which is
# the same condition as a nonnegative separability margin.

# Crossing of the m = n = 1/4, eta = 0 sweep. Reference value: the root in
# theta of det(R S Sigma S^T R + (i/2) S Omega S^T), the same matrices built
# entry by entry in mpmath 1.3 at 40 significant digits and solved with
# ``mpmath.findroot``, which gives the same 40 digits from the bracket
# (0.45, 0.55) and from the start 0.49. No eigensolver is involved.
QUARTER_CROSSING = 0.4926892935955880603138111874727615762251

# Deformed-oscillator points, each as ((mass1, mass2, freq1, freq2, theta,
# eta, hbar), (low, high) mode frequencies, ground-state covariance in the
# interleaved basis). Written by ``tests/reference/oscillator_edge.py`` from
# the Hamiltonian ``Ups^T H_nc Ups`` built entry by entry in mpmath 1.3 at
# 80 digits and printed to 60: the modes from the characteristic polynomial
# of J H and the covariance from Williamson's polar form, verified pure and
# stationary to 1e-50. No eigensolver of ginfo is involved.
OSCILLATOR_REFERENCES = [
    ((2.104276890260227, 0.8019963937869912, 1.4808950665076819, 1.0694591716533708,
      1.161823653470202, 0.8595244107076057, 0.5),
     (4.92685317486185711684736760293130312207375277897640259434167e-7,
      6.15916945992795058771355314190629232752954660414548718209767),
     ((1.53068618504586790328997299034780086783854861499743324492342e-1,
       0.0,
       0.0,
       1.20353798737440961760483868567405781820683670817971703388994e-2),
      (0.0,
       4.11751752122404996905647346001764085850740443873264865907643e-1,
       4.37270671753110509361979444353048953083461611735604660257184e-2,
       0.0),
      (0.0,
       4.37270671753110509361979444353048953083461611735604660257184e-2,
       5.56130494757696476813896704697760562989174756152225890196538e-1,
       0.0),
      (1.20353798737440961760483868567405781820683670817971703388994e-2,
       0.0,
       0.0,
       1.13330005202609603833572689922142211781073665889726434162373e-1))),
    ((2.2088406975214014, 1.34787205135168, 1.675331762680344, 2.6383318290489277,
      0.982888372668467, 1.0158376496034558, 0.5),
     (6.47915771560087083312819360927874883989406830460086923943405e-7,
      1.62839817793064718023968594013225882741526106278506385336654e+1),
     ((2.45412285114957183131235605063295273228609823783907820451302e-1,
       0.0,
       0.0,
       -4.76173992787768023244029222529090787380450451890495246428116e-2),
      (0.0,
       2.64287877000195336076120372738096652738690435038409203834059e-1,
       -4.95510434953616700270888132437487915210153418802550275291945e-2,
       0.0),
      (0.0,
       -4.95510434953616700270888132437487915210153418802550275291945e-2,
       2.55377971040247044436634295391397546419267558257171611568213e-1,
       0.0),
      (-4.76173992787768023244029222529090787380450451890495246428116e-2,
       0.0,
       0.0,
       2.539744973248963195374968351834359700560479618741749542894e-1))),
    ((1.0, 1.0, 1.0, 2.0,
      1e-08, 1e-08, 1.0),
     (9.99999999999999808333333333333381331536866969248552267035247e-1,
      2.00000000000000028333333333333328870796965559134182410790113),
     ((5.00000000000000009722222222222222409142386511757330771164202e-1,
       0.0,
       0.0,
       -8.33333333333333325305837728810763574860526723543288294865324e-10),
      (0.0,
       4.99999999999999990972222222222222197463022048606291453432677e-1,
       -4.16666666666666662652918864405381787430263361771644147432662e-10,
       0.0),
      (0.0,
       -4.16666666666666662652918864405381787430263361771644147432662e-10,
       2.50000000000000004861111111111111204571193255878665385582101e-1,
       0.0),
      (-8.33333333333333325305837728810763574860526723543288294865324e-10,
       0.0,
       0.0,
       9.99999999999999981944444444444444394926044097212582906865353e-1))),
    ((0.045, 0.035, 1.56, 1.25,
      0.22, 72.4, 2.0),
     (4.32899609949053565553319062967834223081499692958175781908896e-8,
      9.1216298403793171923378734529754875102088036803125872721072e+2),
     ((4.38834535198188238846954216300564705710860846949382712737212e-2,
       0.0,
       0.0,
       -8.76247231976669662471385750790046594133458827912230563054568e-2),
      (0.0,
       2.30683769402339999798168484123022316679196854776080209488638e+1,
       -1.4060012727945646691823019405859478888059867804875452790232e-1,
       0.0),
      (0.0,
       -1.4060012727945646691823019405859478888059867804875452790232e-1,
       7.04141357049435687949305763125414037821693886394121345812174e-2,
       0.0),
      (-8.76247231976669662471385750790046594133458827912230563054568e-2,
       0.0,
       0.0,
       1.4376659417880877464835226306824435269738813230691624892173e+1))),
    ((1.0, 1.0, 1.0, 2.0,
      1e-12, 1e-12, 1.0),
     (9.99999999999999999999998083333333333333410434523023038658835e-1,
      2.00000000000000000000000283333333333333321935766425096700675),
     ((5.00000000000000000000000097222222222222218311292572586740064e-1,
       0.0,
       0.0,
       -8.33333333333333316572206103083383176414421989844790907589928e-14),
      (0.0,
       4.99999999999999999999999909722222222222225853799768907550893e-1,
       -4.16666666666666658286103051541691588207210994922395453794964e-14,
       0.0),
      (0.0,
       -4.16666666666666658286103051541691588207210994922395453794964e-14,
       2.50000000000000000000000048611111111111109155646286293370032e-1,
       0.0),
      (-8.33333333333333316572206103083383176414421989844790907589928e-14,
       0.0,
       0.0,
       9.99999999999999999999999819444444444444451707599537815101785e-1))),
    ((1.0, 1.0, 0.01, 0.01,
      0.0, 1e-12, 1.0),
     (9.99999999950000020817931712727352751404007994023725618164673e-3,
      1.00000000005000002081793171071601751432956953074900996877763e-2),
     ((4.99999999999999989591034144139157650259745995760497165786611e+1,
       0.0,
       0.0,
       0.0),
      (0.0,
       5.00000000000000010408965855860842566433394381193183896735575e-3,
       0.0,
       0.0),
      (0.0,
       0.0,
       4.99999999999999989591034144139157650259745995760497165786611e+1,
       0.0),
      (0.0,
       0.0,
       0.0,
       5.00000000000000010408965855860842566433394381193183896735575e-3))),
    ((1.0, 1.0, 0.001, 0.0010000001,
      0.0, 0.0, 1.0),
     (1.000000000000000020816681711721685132943093776702880859375e-3,
      1.0000001000000000549172707309253382845781743526458740234375e-3),
     ((4.9999999999999998959165914413915765019557185521258852881957e+2,
       0.0,
       0.0,
       0.0),
      (0.0,
       5.000000000000000104083408558608425664715468883514404296875e-4,
       0.0,
       0.0),
      (0.0,
       0.0,
       4.99999950000004972540870126313581694246472310123848071739069e+2,
       0.0),
      (0.0,
       0.0,
       0.0,
       5.0000005000000002745863536546266914228908717632293701171875e-4))),
]

_J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
_SZ = np.diag([1.0, -1.0])
_I2 = np.eye(2)
_Z2 = np.zeros((2, 2))


def _deformed_pair(m, n, theta, eta):
    """``R S Sigma S^T R`` and ``S Omega S^T`` for the pair in the party basis."""
    radius = np.hypot(m, n)
    scale = (1.0 + radius) / (1.0 - radius)
    gamma = np.block([[n * _I2, m * _SZ], [m * _SZ, -n * _I2]])
    sigma = scale / 2.0 * np.block([[np.eye(4), gamma.T], [gamma, np.eye(4)]])
    omega = np.kron(_I2, np.block([[_Z2, _I2], [-_I2, _Z2]]))
    shift = np.kron(_I2, np.block([[_I2, -theta / 2.0 * _J2], [eta / 2.0 * _J2, _I2]]))
    reflect = np.diag([1.0, 1, 1, 1, 1, 1, -1, -1])
    return reflect @ shift @ sigma @ shift.T @ reflect, shift @ omega @ shift.T


def hermitian_pair_matrix(m, n, theta):
    """``R S Sigma S^T R + (i/2) S Omega S^T`` for the pair at eta = 0."""
    state, form = _deformed_pair(m, n, theta, 0.0)
    return state + 0.5j * form


def hermitian_margin(m, n, theta, eta):
    """Separability margin ``nu_min - 1`` of the pair by the Hermitian route.

    ``state + (i t / 2) form`` is positive semidefinite exactly for
    ``t <= nu_min``. With ``state = L L^T``, that is ``I + t H >= 0`` for the
    Hermitian ``H = L^-1 (i/2) form L^-T``, whose eigenvalues are
    ``+-1/nu_k``; so ``nu_min`` is one over the largest of them.
    """
    state, form = _deformed_pair(m, n, theta, eta)
    inv_low = np.linalg.inv(np.linalg.cholesky(state))
    return 1.0 / np.linalg.eigvalsh(inv_low @ (0.5j * form) @ inv_low.T)[-1] - 1.0


def hermitian_min_eigenvalue(m, n, theta):
    """Smallest eigenvalue of :func:`hermitian_pair_matrix`; >= 0 means separable."""
    return float(np.linalg.eigvalsh(hermitian_pair_matrix(m, n, theta))[0])


def hermitian_crossing(m, n):
    """Theta in the figure grid's span (0.01, 0.99) where the Hermitian minimum flips.

    Bisects on the sign of :func:`hermitian_min_eigenvalue` until the bracket
    ends are adjacent floats; the grid ends must have opposite signs.
    """
    lo, hi = 0.01, 0.99
    lo_separable = hermitian_min_eigenvalue(m, n, lo) >= 0.0
    if (hermitian_min_eigenvalue(m, n, hi) >= 0.0) == lo_separable:
        raise ValueError(f"no sign change of the Hermitian minimum on [{lo}, {hi}]")
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if (hermitian_min_eigenvalue(m, n, mid) >= 0.0) == lo_separable:
            lo = mid
        else:
            hi = mid


# ---------------------------------------------------------------------------
# Hermitian route for the canonical two-mode family (regularized volume)
#
# Built with numpy alone from the docstrings of ``ginfo.states`` (the block
# form [[a I, C], [C, b I]], C = diag(c, d), in the basis (x1, p1, x2, p2))
# and of ``ginfo.symplectic`` (vacuum at invariant 1). It shares no code with
# ``symplectic_spectrum``. All symplectic invariants are >= t exactly when
# ``Sigma + (i t / 2) Omega`` is positive semidefinite, so the volume's gate
# "smallest invariant >= 1 - rsup_slack" is the Hermitian test at
# t = 1 - rsup_slack, and the PPT verdict is the same test after flipping p2.

_FORM2 = np.kron(_I2, _J2)
_FLIP_P2 = np.diag([1.0, 1.0, 1.0, -1.0])


# Boxes in (a, b, c, d) that straddle the verdicts' boundaries, with the draws
# the volume tests take from them
GATE_BOXES = {
    "spd-boundary": ((0.3, 1.2), (0.3, 1.2), (-1.2, 1.2), (-1.2, 1.2)),
    "uncertainty-boundary": ((0.4, 0.9), (0.4, 0.9), (-0.3, 0.3), (-0.3, 0.3)),
    "ppt-boundary": ((0.5, 1.5), (0.5, 1.5), (-0.5, 0.5), (-0.5, 0.5)),
    "negative-a": ((-0.5, 1.5), (0.5, 1.5), (-0.5, 0.5), (-0.5, 0.5)),
}
GATE_SAMPLES = 2000


def gate_draws(box, seed):
    """``(GATE_SAMPLES, 4)`` uniform draws in ``box`` and the box's volume."""
    lows = np.array([lo for lo, _ in box])
    highs = np.array([hi for _, hi in box])
    draws = np.random.default_rng(seed).uniform(lows, highs, size=(GATE_SAMPLES, 4))
    return draws, float(np.prod(highs - lows))


def canonical_hermitian_verdicts(draws, rsup_slack=1e-10):
    """Per-sample (physical, separable) masks of ``(samples, 4)`` rows (a, b, c, d).

    ``physical`` needs a, b > 0 and the Hermitian uncertainty test;
    ``separable`` is the same test on the reflected matrix and is only
    meaningful where ``physical`` holds.
    """
    t = 1.0 - rsup_slack
    physical = np.zeros(len(draws), dtype=bool)
    separable = np.zeros(len(draws), dtype=bool)
    for i, (a, b, c, d) in enumerate(draws):
        if a <= 0 or b <= 0:
            continue
        sigma = np.block([[a * _I2, np.diag([c, d])], [np.diag([c, d]), b * _I2]])
        physical[i] = np.linalg.eigvalsh(sigma + 0.5j * t * _FORM2)[0] >= 0.0
        reflected = _FLIP_P2 @ sigma @ _FLIP_P2
        separable[i] = np.linalg.eigvalsh(reflected + 0.5j * t * _FORM2)[0] >= 0.0
    return physical, separable


# ---------------------------------------------------------------------------
# Deformed-oscillator oracles
#
# Second routes to the ground state of ``ginfo.oscillator``: the equivalent
# Hamiltonian assembled from the closed-form blocks of ``equivalent_params``
# and the stationary equation that the reported exponent must solve.

def equivalent_hamiltonian_matrix(eq):
    """Standard-frame Hamiltonian assembled from the closed-form blocks of ``eq``."""
    h1 = np.diag([eq.stiffness1, 1.0 / eq.mass1])
    h2 = np.diag([eq.stiffness2, 1.0 / eq.mass2])
    cross = np.array([[0.0, -2.0 * eq.coupling2], [2.0 * eq.coupling1, 0.0]])
    return np.block([[h1, cross], [cross.T, h2]])


def stationary_residual(h, exponent, hbar):
    """Residual of the stationary equation of ``exp(-x^T M x / 2)`` under ``h``.

    With ``p psi = i hbar M x psi``, the quadratic part of ``H psi / psi`` for
    ``H = xi^T h xi / 2`` (``xi = (x1, p1, x2, p2)``) vanishes exactly when
    ``A + i hbar (B M + M B^T) - hbar^2 M C M = 0``, with ``A``, ``C`` and
    ``B`` the x-x, p-p and x-p blocks of ``h``. Returns its largest entry,
    relative to ``|A| + hbar^2 |M|^2 |C|``. It reads the exponent only, so it
    is a second route to it that shares nothing with the covariance.
    """
    m = np.array([[exponent.m11, 1j * exponent.cross_imag],
                  [1j * exponent.cross_imag, exponent.m22]])
    x, p = [0, 2], [1, 3]
    a, c, b = h[np.ix_(x, x)], h[np.ix_(p, p)], h[np.ix_(x, p)]
    residual = a + 1j * hbar * (b @ m + m @ b.T) - hbar ** 2 * m @ c @ m
    scale = np.abs(a).max() + hbar ** 2 * np.abs(m).max() ** 2 * np.abs(c).max()
    return float(np.abs(residual).max() / scale)


def separability_sides(p):
    """Both sides of the unfactored closed-form separability constraint of ``p``.

    The reference for the factored ``constraint_gap`` of
    ``ginfo.oscillator.separability_condition``; the factorization itself is
    re-derived by ``tests/reference/oscillator_factor.py``. Its constants are
    integers, so on Fraction fields it is exact.
    """
    m12 = p.mass1 * p.mass2
    h2 = p.hbar ** 2
    w1s, w2s = p.freq1 ** 2, p.freq2 ** 2
    lhs = (4 * h2 / m12 + w1s * p.theta ** 2) \
        * (p.eta / m12 + w2s * p.theta) ** 2 * (p.eta ** 2 / m12 + 4 * h2 * w1s)
    rhs = (4 * h2 / m12 + w2s * p.theta ** 2) \
        * (p.eta / m12 + w1s * p.theta) ** 2 * (p.eta ** 2 / m12 + 4 * h2 * w2s)
    return lhs, rhs
