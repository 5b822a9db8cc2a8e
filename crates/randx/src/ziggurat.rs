//! The standard normal sampler: a 128-layer ziggurat at 53-bit
//! resolution (Doornik's ZIGNOR, 2005) with Marsaglia's exact tail.
//!
//! The half-density `f(x) = exp(−x²/2)` is covered by 128 horizontal
//! layers of equal area `V`. Layer `i` spans `x ∈ [0, X[i])` and
//! `y ∈ [F[i], F[i + 1])`, with `F[i] = f(X[i])`. The base layer 0 is the
//! rectangle `[0, R) × [0, f(R))` plus the tail beyond `R`, drawn as one
//! box of virtual width `X[0] = V / f(R)`. A draw picks a layer and a
//! point `x = u·X[i]` in it. When `x < X[i + 1]` the point lies under
//! the layer above, inside the density, and is returned as is: one
//! `u64`, one multiply, one compare. That is about 97% of all draws.
//! Otherwise the point falls in the layer's wedge (exact rejection
//! against `exp`) or, in the base layer, in the tail (Marsaglia's
//! method), and a rejected point starts a fresh draw.
//!
//! Each word is split into disjoint bit fields, so the layer, the sign
//! and the uniform are independent: bits 0–6 pick the layer, bit 7 is
//! the sign, and bits 11–63 give the 53-bit uniform `u ∈ [0, 1)`.
//! Doornik's point against the 32-bit Marsaglia–Tsang original is that
//! it reuses the uniform's low bits as the layer index.

use rand::RngCore;

/// Number of layers: a power of two, so the layer index is a bit mask.
const LAYERS: usize = 128;
/// Where the tail begins: the right edge of the base layer's rectangle.
pub(crate) const R: f64 = 3.442619855899;
/// The area of every layer under `exp(−x²/2)`.
#[cfg(test)]
const V: f64 = 9.91256303526217e-3;
/// `2⁻⁵³`: scales a 53-bit integer into `[0, 1)`.
const UNIT: f64 = 1.0 / (1u64 << 53) as f64;

/// Right edges of the layers: `X[0] = V / f(R)`, `X[1] = R`,
/// `X[i] = √(−2 ln(V / X[i − 1] + f(X[i − 1])))`, and `X[128] = 0`.
/// `tables_recompute_from_r_and_v` rebuilds them.
#[rustfmt::skip]
const X: [f64; LAYERS + 1] = [
    3.7130862467425505, 3.442619855899, 3.2230849845811416,
    3.0832288582168683, 2.9786962526477803, 2.894344007021529,
    2.8231253505489105, 2.761169372387177, 2.7061135731218195,
    2.6564064112613597, 2.6109722484318474, 2.569033625924938,
    2.5300096723888275, 2.493454522095372, 2.4590181774118305,
    2.42642064553375, 2.3954342780110625, 2.3658713701176386,
    2.3375752413392368, 2.310413683698763, 2.2842740596774718,
    2.2590595738691985, 2.2346863955909795, 2.2110814088787034,
    2.188180432076049, 2.165926793748922, 2.1442701823603953,
    2.1231657086739766, 2.1025731351892385, 2.082456237992017,
    2.0627822745083084, 2.0435215366550676, 2.0246469733773855,
    2.006133869963472, 1.98795957412762, 1.9701032608543265,
    1.9525457295535567, 1.9352692282966228, 1.9182573008645099,
    1.901494653105151, 1.884967035707759, 1.8686611409944887,
    1.8525645117280911, 1.836665460258446, 1.8209529965961255,
    1.8054167642192285, 1.7900469825998586, 1.7748343955860695,
    1.7597702248995934, 1.7448461281138004, 1.7300541605637305,
    1.7153867407136676, 1.7008366185699169, 1.6863968467791681,
    1.672060754097601, 1.6578219209540241, 1.6436741568628686,
    1.6296114794706347, 1.615628095043161, 1.6017183802213781,
    1.5878768648905761, 1.5740982160230008, 1.560377222366169,
    1.5467087798599104, 1.5330878776740433, 1.5195095847659401,
    1.5059690368632033, 1.492461423781354, 1.4789819769899242,
    1.4655259573427108, 1.4520886428892246, 1.4386653166845635,
    1.42525125451406, 1.4118417124470577, 1.3984319141310053,
    1.3850170377326518, 1.3715922024273426, 1.3581524543301435,
    1.344692751753547, 1.3312079496656273, 1.317692783209414,
    1.3041418501286168, 1.2905495919261964, 1.2769102735601556,
    1.263217961454621, 1.2494664995730682, 1.2356494832633627,
    1.2217602305399964, 1.2077917504159497, 1.1937367078331287,
    1.1795873846639882, 1.1653356361647524, 1.1509728421488674,
    1.1364898520131608, 1.1218769225825422, 1.107123647534036,
    1.0922188769072774, 1.0771506248928957, 1.0619059636948243,
    1.0464709007640454, 1.0308302360681956, 1.0149673952513305,
    0.9988642334929836, 0.982500803515429, 0.9658550794011499,
    0.9489026255113064, 0.9316161966151508, 0.9139652510230323,
    0.8959153525809377, 0.8774274291129234, 0.8584568431938132,
    0.8389522142975774, 0.8188539067003573, 0.7980920606440569,
    0.7765839878947599, 0.7542306644540556, 0.7309119106424888,
    0.7064796113354365, 0.6807479186691546, 0.6534786387399752,
    0.6243585973360507, 0.5929629424714483, 0.5586921784081852,
    0.5206560387620606, 0.4774378372966898, 0.4265479863554235,
    0.36287143109703196, 0.27232086481396467, 0.0,
];

/// `F[i] = exp(−X[i]² / 2)`, the density at each layer edge.
#[rustfmt::skip]
const F: [f64; LAYERS + 1] = [
    0.0010143525641203774, 0.002669629083880923, 0.005548995220771345,
    0.008624484412859885, 0.011839478657884862, 0.015167298010546568,
    0.018592102737011288, 0.022103304615927098, 0.02569329193593427,
    0.02935631744000685, 0.03308788614622575, 0.0368843887866562,
    0.040742868074444175, 0.044660862200491425, 0.048636295859867805,
    0.05266740190305101, 0.05675266348104985, 0.060890770348040406,
    0.06508058521306807, 0.06932111739357791, 0.0736115018841134,
    0.0779509825139734, 0.08233889824223566, 0.08677467189478018,
    0.09125780082683026, 0.09578784912173144, 0.10036444102865587,
    0.10498725540942132, 0.10965602101484027, 0.11437051244886601,
    0.11913054670765083, 0.12393598020286782, 0.1287867061959432,
    0.13368265258343937, 0.1386237799845946, 0.14361008009062776,
    0.14864157424234226, 0.15371831220818166, 0.1588403711394793,
    0.16400785468342038, 0.169220892237365, 0.1744796383307895,
    0.17978427212329545, 0.1851349970089922, 0.19053204031913715,
    0.19597565311627774, 0.20146611007431367, 0.20700370943992652,
    0.2125887730717303, 0.2182216465543054, 0.22390269938500842,
    0.22963232523211613, 0.23541094226347908, 0.24123899354543982,
    0.2471169475123214, 0.25304529850732577, 0.25902456739620483,
    0.2650553022555892, 0.2711380791383846, 0.2772735029191881,
    0.283462208223233, 0.28970486044295984, 0.296002156846933,
    0.30235482778648354, 0.3087636380061811, 0.3152293880650109,
    0.3217529158759849, 0.3283350983728503, 0.3349768533135892,
    0.3416791412315504, 0.3484429675463266, 0.3552693848479171,
    0.3621594953693176, 0.3691144536644722, 0.3761354695105626,
    0.3832238110559012, 0.3903808082373146, 0.3976078564938733,
    0.40490642080722294, 0.412278040102661, 0.4197243320495744,
    0.4272469983049961, 0.4348478302499909, 0.44252871527546844,
    0.4502916436820392, 0.45813871626787206, 0.4660721526894561,
    0.47409430069301695, 0.4822076463294852, 0.4904148252838441,
    0.4987186354709795, 0.507122051075569, 0.5156282382440018,
    0.5242405726729841, 0.5329626593838361, 0.5417983550254255,
    0.5507517931146045, 0.5598274127040869, 0.5690299910679509,
    0.5783646811197631, 0.5878370544347066, 0.5974531509445167,
    0.6072195366251203, 0.6171433708188809, 0.6272324852499273,
    0.6374954773350423, 0.6479418211102225, 0.658582000050088,
    0.6694276673488904, 0.6804918409973341, 0.6917891434366751,
    0.7033360990161581, 0.7151515074104986, 0.7272569183441848,
    0.7396772436726473, 0.7524415591746114, 0.7655841738977045,
    0.7791460859296877, 0.7931770117713051, 0.8077382946829605,
    0.822907211381409, 0.8387836052959896, 0.8555006078694506,
    0.8732430489100695, 0.8922816507840261, 0.9130436479717402,
    0.9362826816850596, 0.9635996931270862, 1.0,
];

/// The uniform in `[0, 1)` carried by bits 11–63 of `bits`.
#[inline(always)]
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 * UNIT
}

/// A uniform in `(0, 1]`, safe to take the logarithm of.
#[inline]
fn open_unit(bits: u64) -> f64 {
    ((bits >> 11) + 1) as f64 * UNIT
}

/// One standard normal variate. Every caller in the workspace reaches it
/// through [`crate::StandardNormal`].
#[inline]
pub(crate) fn standard_normal<G: RngCore + ?Sized>(rng: &mut G) -> f64 {
    loop {
        let bits = rng.next_u64();
        let layer = bits as usize & (LAYERS - 1);
        // `layer + 1 <= LAYERS`, so both reads are in bounds.
        let (Some(&outer), Some(&inner)) = (X.get(layer), X.get(layer + 1)) else {
            continue;
        };
        let x = unit(bits) * outer;
        let magnitude = if x < inner {
            x
        } else {
            match edge(rng, layer, x) {
                Some(x) => x,
                None => continue,
            }
        };
        // Bit 7 becomes the sign bit.
        return f64::from_bits(magnitude.to_bits() | ((bits & 0x80) << 56));
    }
}

/// The rare outcomes of a draw whose point `x` lies outside the
/// rectangle of `layer`: the tail for the base layer, the wedge test for
/// every other. `None` rejects the point.
#[cold]
#[inline(never)]
fn edge<G: RngCore + ?Sized>(rng: &mut G, layer: usize, x: f64) -> Option<f64> {
    if layer == 0 {
        return Some(tail(rng));
    }
    let (Some(&low), Some(&high)) = (F.get(layer), F.get(layer + 1)) else {
        return None;
    };
    // A uniform height inside the layer; keep x when it lies under f.
    let y = low + unit(rng.next_u64()) * (high - low);
    (y < (-0.5 * x * x).exp()).then_some(x)
}

/// Marsaglia's exact sampler for `|Z|` conditioned on `|Z| > R`.
fn tail<G: RngCore + ?Sized>(rng: &mut G) -> f64 {
    loop {
        let x = -open_unit(rng.next_u64()).ln() / R;
        let y = -open_unit(rng.next_u64()).ln();
        if 2.0 * y >= x * x {
            return R + x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gof::{erfc, ks_statistic};
    use crate::seeded_rng;

    /// `P(|Z| > R)`, the probability that a draw comes from the tail.
    fn tail_mass() -> f64 {
        erfc(R / std::f64::consts::SQRT_2)
    }

    /// The literal tables are Doornik's recurrence from `R` and `V`, and
    /// every layer really has area `V`.
    #[test]
    fn tables_recompute_from_r_and_v() {
        let f = |x: f64| (-0.5 * x * x).exp();
        let mut x = [0.0; LAYERS + 1];
        x[0] = V / f(R);
        x[1] = R;
        for i in 2..LAYERS {
            x[i] = (-2.0 * (V / x[i - 1] + f(x[i - 1])).ln()).sqrt();
        }
        let close = |a: f64, b: f64| (a - b).abs() <= 4.0 * f64::EPSILON * a.abs().max(b.abs());
        for i in 0..=LAYERS {
            assert!(
                close(X[i], x[i]),
                "X[{i}] = {} recomputes as {}",
                X[i],
                x[i]
            );
            assert!(
                close(F[i], f(X[i])),
                "F[{i}] = {} recomputes as {}",
                F[i],
                f(X[i])
            );
        }
        assert_eq!((X[LAYERS], F[LAYERS]), (0.0, 1.0));
        // V's 15 digits close the top layer, whose upper edge is f(0) = 1,
        // to 1.2·10⁻⁹ of its area.
        for i in 1..LAYERS {
            let area = X[i] * (F[i + 1] - F[i]);
            assert!((area - V).abs() < 1e-8 * V, "layer {i} has area {area}");
        }
        // The base layer: the rectangle under f(R) plus the tail.
        let tail_area = (std::f64::consts::PI / 2.0).sqrt() * tail_mass();
        let base = R * F[1] + tail_area;
        assert!((base - V).abs() < 1e-5 * V, "base layer has area {base}");
    }

    /// The share of draws beyond `R` is `P(|Z| > R)` ≈ 5.76·10⁻⁴ within
    /// a 4σ binomial bound, and their shape is the normal's conditional
    /// tail.
    #[test]
    fn tail_mass_and_shape_beyond_r() {
        const N: usize = 2_000_000;
        let mut rng = seeded_rng(0x7A11);
        let mut tail: Vec<f64> = (0..N)
            .map(|_| standard_normal(&mut rng).abs())
            .filter(|&x| x > R)
            .collect();
        let p = tail_mass();
        assert!((p - 5.76e-4).abs() < 1e-6, "P(|Z| > R) = {p}");
        let expected = N as f64 * p;
        let z = (tail.len() as f64 - expected) / (expected * (1.0 - p)).sqrt();
        assert!(
            z.abs() < 4.0,
            "{} tail draws, expected {expected:.0} (z = {z:.2})",
            tail.len()
        );
        let n = tail.len();
        let d = ks_statistic(&mut tail, |t| 1.0 - erfc(t / std::f64::consts::SQRT_2) / p);
        let critical = crate::gof::ks_critical(n, 0.01);
        assert!(
            d < critical,
            "tail KS statistic {d} over {n} draws, critical {critical}"
        );
    }

    /// One `u64` per draw in the common case: the wedges and the tail add
    /// only a few percent.
    #[test]
    fn a_draw_costs_about_one_word() {
        struct Counting<G> {
            inner: G,
            words: u64,
        }
        impl<G: RngCore> RngCore for Counting<G> {
            fn next_u32(&mut self) -> u32 {
                (self.next_u64() >> 32) as u32
            }
            fn next_u64(&mut self) -> u64 {
                self.words += 1;
                self.inner.next_u64()
            }
        }
        const N: u64 = 200_000;
        let mut rng = Counting {
            inner: seeded_rng(0x30D),
            words: 0,
        };
        for _ in 0..N {
            standard_normal(&mut rng);
        }
        let per_draw = rng.words as f64 / N as f64;
        assert!((1.0..1.06).contains(&per_draw), "{per_draw} words per draw");
    }

    /// Bit 7 of the word is the sign and nothing else: flipping it
    /// mirrors the draw.
    #[test]
    fn sign_bit_mirrors_the_draw() {
        struct Fixed(u64);
        impl RngCore for Fixed {
            fn next_u32(&mut self) -> u32 {
                self.0 as u32
            }
            fn next_u64(&mut self) -> u64 {
                self.0
            }
        }
        // Layer 5, uniform 1/2: well inside the rectangle.
        let word = (1u64 << 63) | 5;
        let pos = standard_normal(&mut Fixed(word));
        let neg = standard_normal(&mut Fixed(word | 0x80));
        assert_eq!(pos, 0.5 * X[5]);
        assert_eq!(neg, -pos);
    }
}
