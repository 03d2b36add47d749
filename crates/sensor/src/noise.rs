//! Averaging-dependent measurement noise model.
//!
//! The paper motivates the accuracy loss of small averaging windows by "the noise due
//! to using lower averaging windows" (Section IV-B).  This module models the output
//! noise of one accelerometer reading as white Gaussian noise whose standard
//! deviation shrinks with the square root of the averaging window, plus a fixed
//! noise floor, with an extra penalty factor in low-power mode (the BMI160's
//! low-power under-sampling path is noisier than the normal-mode filter chain).
//!
//! Every synthetic noise value comes from [`gaussian`], a 256-layer
//! Marsaglia–Tsang ziggurat whose layer tables are committed constants.  Its
//! fast path (~98.5% of values) uses no libm call, so no platform can move
//! those values; the rare wedge and tail paths call the platform's `exp` and
//! `ln`, and a last-ulp difference there could flip one accept/reject
//! decision and with it the rest of the stream.  Most values cost one `u64`
//! draw; a rejected point draws again, so the number of `u64` words consumed
//! per value is not fixed.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::config::{OperationMode, SensorConfig};
use crate::energy::EnergyModel;

/// Parameters of the measurement noise model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseModel {
    /// Standard deviation of a single internal (un-averaged) sample, in g.
    pub raw_noise_std_g: f64,
    /// Noise floor that averaging cannot remove, in g.
    pub noise_floor_g: f64,
    /// Multiplicative noise penalty applied in low-power mode.
    pub low_power_factor: f64,
}

impl NoiseModel {
    /// A model calibrated so that the largest averaging window (128) is almost
    /// noise-free while the smallest (8) produces visibly degraded features.
    ///
    /// The absolute values are deliberately on the high side of the BMI160
    /// datasheet so that the *classification accuracy* spread across the Table I
    /// configurations matches the ~91–98 % range of the paper's Fig. 2; the paper's
    /// own accuracy loss at small averaging windows comes from exactly this noise.
    pub fn bmi160() -> Self {
        Self { raw_noise_std_g: 0.22, noise_floor_g: 0.006, low_power_factor: 1.35 }
    }

    /// A noiseless model, useful for deterministic tests.
    pub fn noiseless() -> Self {
        Self { raw_noise_std_g: 0.0, noise_floor_g: 0.0, low_power_factor: 1.0 }
    }

    /// Standard deviation of one output sample under the given configuration, in g.
    ///
    /// ```
    /// use adasense_sensor::{AveragingWindow, NoiseModel, SamplingFrequency, SensorConfig};
    /// let n = NoiseModel::bmi160();
    /// let clean = n.output_noise_std_g(SensorConfig::new(SamplingFrequency::F100, AveragingWindow::A128));
    /// let noisy = n.output_noise_std_g(SensorConfig::new(SamplingFrequency::F12_5, AveragingWindow::A8));
    /// assert!(noisy > clean);
    /// ```
    pub fn output_noise_std_g(&self, config: SensorConfig) -> f64 {
        self.output_noise_std_for(config, EnergyModel::bmi160().operation_mode(config))
    }

    /// Standard deviation of one output sample given an explicit operation mode.
    pub fn output_noise_std_for(&self, config: SensorConfig, mode: OperationMode) -> f64 {
        let averaged = self.raw_noise_std_g / f64::from(config.averaging.samples()).sqrt();
        let mode_factor = match mode {
            OperationMode::Normal => 1.0,
            OperationMode::LowPower => self.low_power_factor,
        };
        self.noise_floor_g + averaged * mode_factor
    }
}

impl Default for NoiseModel {
    fn default() -> Self {
        Self::bmi160()
    }
}

/// Draws one zero-mean Gaussian noise value with standard deviation `std`
/// (an [`NoiseModel::output_noise_std_for`] result, computed once per window).
///
/// A zero `std` returns exactly `0.0` without drawing from `rng`, so a
/// noiseless model leaves the RNG stream untouched.
pub fn scaled_gaussian<R: Rng + ?Sized>(std: f64, rng: &mut R) -> f64 {
    if std == 0.0 {
        0.0
    } else {
        std * gaussian(rng)
    }
}

/// Draws a standard-normal value with a 256-layer Marsaglia–Tsang ziggurat.
///
/// The right half of the density `f(x) = exp(−x²/2)` is covered by 256
/// stacked layers of equal area: 255 rectangles `[0, X[i]] × [F[i], F[i + 1]]`
/// and a base strip that joins the rectangle under `f(r)` to the tail beyond
/// `r = X[1] ≈ 3.654`.  One `next_u64()` supplies three disjoint bit fields —
/// the layer index (bits 0–7), the sign (bit 8) and a 53-bit uniform `u`
/// (bits 11–63) — so the index never correlates with the uniform (Doornik
/// 2005 shows the defect when they share bits).  A point `u × X[i]` left of
/// the next layer's edge `X[i + 1]` lies under the curve and is returned at
/// once: one draw, a scale onto the layer's width and one compare, taken by
/// ~98.5% of draws.  Otherwise a layer's wedge draws a height and tests it
/// against `f(x)`, and the base strip samples the tail with Marsaglia's
/// exponential method; a rejected point restarts with a fresh word.  These
/// rare paths are the only libm calls.  The number of u64 draws per value
/// therefore varies, while the values depend only on the RNG stream and the
/// committed layer tables.
pub fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let bits = rng.next_u64();
        let i = (bits & 0xff) as usize;
        let x = (bits >> 11) as f64 * UNIT_53 * X[i];
        let magnitude = if x < X[i + 1] {
            x
        } else if let Some(magnitude) = outside_core(i, x, rng) {
            magnitude
        } else {
            continue;
        };
        // Bit 8 becomes the sign bit (bit 63): a branch here would mispredict
        // on half of all draws.
        return f64::from_bits(magnitude.to_bits() ^ ((bits & 0x100) << 55));
    }
}

/// The rare paths of [`gaussian`] for a point `x` in layer `i` right of
/// `X[i + 1]`: the tail for the base strip, the wedge test for any other
/// layer.  `None` rejects the point.
#[cold]
fn outside_core<R: Rng + ?Sized>(i: usize, x: f64, rng: &mut R) -> Option<f64> {
    if i == 0 {
        Some(tail(rng))
    } else if F[i] + (F[i + 1] - F[i]) * rng.random::<f64>() < (-0.5 * x * x).exp() {
        Some(x)
    } else {
        None
    }
}

/// Draws from the standard normal conditioned on `x > X[1]` (Marsaglia 1964).
fn tail<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let r = X[1];
    loop {
        // Uniforms on (0, 1], so neither logarithm sees zero.
        let x = -(1.0 - rng.random::<f64>()).ln() / r;
        let y = -(1.0 - rng.random::<f64>()).ln();
        if y + y > x * x {
            return r + x;
        }
    }
}

/// Number of ziggurat layers; `gaussian` takes the layer index from 8 bits.
const LAYERS: usize = 256;

/// Scales a 53-bit integer onto `[0, 1)`.
const UNIT_53: f64 = 1.0 / (1u64 << 53) as f64;

// Layer edges `X` and the density `F[i] = f(X[i])` at each, generated from
// Marsaglia & Tsang's tail start `r = 3.6541528853610088` and layer area
// `v = 4.92867323399e-3` by the recurrence `X[i + 1] = f⁻¹(f(X[i]) + v / X[i])`
// from `X[1] = r`, with `X[0] = v / f(r)` (the base strip's width) and
// `X[LAYERS] = 0`.  They are committed rather than computed at start-up so
// that no platform's libm can move them; the unit test
// `ziggurat_tables_match_a_recompute_from_r_and_v` recomputes them.
#[rustfmt::skip]
const X: [f64; LAYERS + 1] = [
    3.91075795953709, 3.654152885361009, 3.4492782985609645, 3.320244733839166,
    3.224575052047029, 3.14788928951715, 3.083526132001233, 3.0278377917686354,
    2.978603279880845, 2.9343668672078542, 2.894121053612348, 2.8571387308721325,
    2.822877396825325, 2.7909211740007858, 2.7609440052788226, 2.732685359042827,
    2.705933656121858, 2.680514643284522, 2.6562830375755024, 2.6331163936303246,
    2.6109105184875485, 2.589575986706995, 2.5690354526805366, 2.5492215503234608,
    2.530075232158517, 2.5115444416253423, 2.4935830412696807, 2.4761499396691433,
    2.4592083743333113, 2.4427253181989568, 2.426670984935726, 2.4110184138996855,
    2.3957431197804806, 2.380822795170626, 2.3662370567158186, 2.35196722737766,
    2.3379961487950314, 2.324308018869623, 2.31088825059985, 2.2977233489013296,
    2.284800802722946, 2.272108990226824, 2.259637095172218, 2.2473750329458078,
    2.235313384928328, 2.2234433400909057, 2.2117566428825444, 2.200245546609648,
    2.1889027716247207, 2.1777214677386416, 2.166695180352646, 2.1558178198750633,
    2.1450836340462036, 2.13448718284432, 2.1240233156878157, 2.113687150684934,
    2.103474055713147, 2.0933796311370503, 2.083399693996552, 2.0735302635169788,
    2.0637675478099564, 2.054107931648865, 2.044547965215733, 2.0350843537278087,
    2.025713947862033, 2.0164337349043717, 2.007240830558685, 1.9981324713565642,
    1.9891060076155713, 1.9801588968985984, 1.9712886979317696, 1.962493064942462,
    1.953769742382734, 1.945116560006754, 1.936531428273759, 1.9280123340507183,
    1.9195573365912288, 1.9111645637692822, 1.9028322085484464, 1.89455852566871,
    1.8863418285347764, 1.8781804862909777, 1.8700729210692368, 1.8620176053976323,
    1.8540130597581481, 1.8460578502831198, 1.8381505865807286, 1.8302899196806666,
    1.8224745400917832, 1.8147031759641676, 1.8069745913486934, 1.7992875845475802,
    1.79164098655001, 1.7840336595472763, 1.776464495522345, 1.768932414909078,
    1.7614363653167067, 1.753975320315455, 1.746548278279493, 1.739154261283669,
    1.7317923140507072, 1.7244615029457757, 1.7171609150155407, 1.709889657069006,
    1.702646854797614, 1.6954316519322385, 1.6882432094348587, 1.6810807047228233,
    1.6739433309237604, 1.6668302961592867, 1.6597408228557895, 1.6526741470806485,
    1.6456295179023603, 1.6386061967731111, 1.631603456932422, 1.6246205828305684,
    1.6176568695705342, 1.6107116223673337, 1.603784156023583, 1.5968737944202613,
    1.5899798700216485, 1.5831017233934714, 1.5762387027333329, 1.5693901634125345,
    1.5625554675284397, 1.555733983466555, 1.5489250854715355, 1.5421281532263476,
    1.5353425714388431, 1.5285677294350246, 1.521803020758293, 1.5150478427739924,
    1.508301596278572, 1.5015636851127065, 1.4948335157777184, 1.4881104970546544,
    1.4813940396253757, 1.4746835556950255, 1.467978458615231, 1.4612781625074078,
    1.4545820818855233, 1.4478896312776697, 1.441200224845798, 1.4345132760029464,
    1.4278281970272904, 1.4211443986723231, 1.4144612897724647, 1.4077782768433715,
    1.4010947636762026, 1.3944101509250713, 1.3877238356868846, 1.381035211072742,
    1.3743436657700305, 1.367648583594318, 1.3609493430301018, 1.3542453167594306,
    1.3475358711773593, 1.3408203658931521, 1.3340981532160836, 1.3273685776246247,
    1.32063097521773, 1.313884673146869, 1.3071289890273539, 1.3003632303274337,
    1.2935866937335176, 1.2867986644897864, 1.2799984157103332, 1.2731852076618437,
    1.2663582870146883, 1.2595168860601442, 1.2526602218912979, 1.245787495544998,
    1.2388978911020274, 1.231990574742445, 1.225064693752808, 1.2181193754817266,
    1.2111537262399112, 1.2041668301405601, 1.197157747875586, 1.1901255154228016,
    1.1830691426787607, 1.1759876120114898, 1.1688798767268338, 1.1617448594415742,
    1.1545814503558518, 1.1473885054167339, 1.1401648443639958, 1.132909248648337,
    1.1256204592112944, 1.118297174115063, 1.1109380460092495, 1.1035416794202682,
    1.0961066278476035, 1.0886313906495142, 1.0811144096988894, 1.0735540657878717,
    1.0659486747575067, 1.0582964833260065, 1.0505956645862071, 1.0428443131393705,
    1.0350404398286053, 1.0271819660307513, 1.0192667174605292, 1.0112924174349784,
    1.0032566795395914, 0.9951569996299431, 0.9869907470938463, 0.9787551552889378,
    0.9704473110588646, 0.9620641432176052, 0.9536024098755727, 0.9450586844625711,
    0.9364293402808969, 0.9277105333962348, 0.918898183643735, 0.909987953490769,
    0.9009752244551745, 0.8918550707267924, 0.8826222295789101, 0.8732710680824946,
    0.8637955455468269, 0.8541891710015606, 0.8444449549024237, 0.8345553540795188,
    0.8245122087452886, 0.8143066701280643, 0.8039291169826649, 0.7933690588331528,
    0.7826150232995888, 0.7716544242167394, 0.7604734064220832, 0.7490566620095817,
    0.7373872114258386, 0.7254461409013035, 0.7132122851820227, 0.7006618410975844,
    0.6877678927862577, 0.6744998228274365, 0.660822574234206, 0.6466957148843889,
    0.6320722363750246, 0.6168969899962355, 0.6011046177439404, 0.5846167660937223,
    0.567338257040473, 0.5491517023130268, 0.5299097206464951, 0.5094233295859334,
    0.48744396612175434, 0.46363433677176324, 0.43751840218666266, 0.40838913458800075,
    0.3751213328504657, 0.33573751918045946, 0.2861745917472605, 0.2152418959132738,
    0.0,
];

#[rustfmt::skip]
const F: [f64; LAYERS + 1] = [
    0.0004774677645866553, 0.001260285930498598, 0.002609072746106363, 0.0040379725933718715,
    0.005522403299264754, 0.00705087547139211, 0.008616582769422917, 0.0102149714397311,
    0.011842757857943104, 0.013497450601780807, 0.015177088307982072, 0.01688008315259584,
    0.01860512127578335, 0.020351096230109354, 0.022117062707379922, 0.023902203305873237,
    0.025705804008632656, 0.027527235669693315, 0.02936593975823011, 0.03122141719202369,
    0.0330932194586887, 0.03498094146183307, 0.03688421568869115, 0.03880270740465692,
    0.04073611065607875, 0.04268414491661938, 0.044646552251446536, 0.046623094902089664,
    0.048613553216035145, 0.05061772386112179, 0.05263541827697365, 0.054666461325077916,
    0.05671069010639947, 0.058767952921137984, 0.060838108349751806, 0.06292102443797785,
    0.06501657797147044, 0.06712465382802399, 0.06924514439725027, 0.07137794905914197,
    0.07352297371424099, 0.07568013035919496, 0.07784933670237221, 0.08003051581494751,
    0.08222359581349568, 0.08442850957065466, 0.08664519445086778, 0.08887359206859423,
    0.09111364806670073, 0.09336531191302662, 0.09562853671335333, 0.09790327903921563,
    0.10018949876917202, 0.10248715894230627, 0.10479622562286706, 0.10711666777507288,
    0.10944845714721002, 0.11179156816424558, 0.11414597782825521, 0.11651166562603701,
    0.1188886134433457, 0.12127680548523544, 0.1236762282020514, 0.12608687022065035,
    0.12850872228047364, 0.13094177717412817, 0.13338602969216284, 0.13584147657175735,
    0.13830811644906432, 0.1407859498149683, 0.14327497897404712, 0.14577520800653793,
    0.14828664273312872, 0.15080929068241017, 0.15334316106083767, 0.15588826472506456,
    0.15844461415652022, 0.16101222343811766, 0.16359110823298295, 0.16618128576511007,
    0.16878277480185033, 0.17139559563815562, 0.17401977008249936, 0.17665532144440665,
    0.1793022745235304, 0.1819606556002165, 0.18463049242750454, 0.18731181422451693,
    0.19000465167119307, 0.1927090369043288, 0.1954250035148856, 0.1981525865465381,
    0.20089182249543133, 0.2036427493111215, 0.20640540639867933, 0.20917983462193565,
    0.21196607630785294, 0.2147641752520085, 0.21757417672517837, 0.2203961274810116,
    0.2232300757647896, 0.22607607132326488, 0.22893416541557748, 0.23180441082524852,
    0.2346868618732527, 0.23758157443217368, 0.2404886059414491, 0.243408015423712,
    0.24633986350223877, 0.2492842124195167, 0.25224112605694377, 0.25521066995567715,
    0.258192911338648, 0.2611879191337637, 0.26419576399831757, 0.26721651834463184,
    0.27025025636696, 0.2732970540696758, 0.27635698929678126, 0.2794301417627653,
    0.2825165930848494, 0.2856164268166581, 0.28872972848335393, 0.291856585618281,
    0.29499708780116257, 0.29815132669790134, 0.3013193961020341, 0.3045013919778963,
    0.30769741250555377, 0.3109075581275637, 0.31413193159763014, 0.3173706380312224,
    0.32062378495823013, 0.323891482377732, 0.3271738428149586, 0.3304709813805371,
    0.3337830158321085, 0.3371100666384128, 0.34045225704594545, 0.34380971314829134,
    0.3471825639582515, 0.3505709414828812, 0.35397498080156925, 0.3573948201472905,
    0.36083060099117575, 0.3642824681305496, 0.3677505697805962, 0.37123505766982134,
    0.3747360871394914, 0.3782538172472381, 0.38178841087503135, 0.38534003484173396,
    0.3889088600204646, 0.39249506146101076, 0.3960988185175471, 0.39972031498193167,
    0.4033597392228689, 0.40701728433124795, 0.4106931482719832, 0.4143875340427068,
    0.4181006498396846, 0.4218327092313533, 0.4255839313399006, 0.4293545410313415,
    0.43314476911457406, 0.4369548525499293, 0.4407850346677699, 0.44463556539772775,
    0.44850670150921407, 0.4523987068638825, 0.45631185268077357, 0.4602464178149235,
    0.46420268905027884, 0.46818096140782217, 0.47218153846988326, 0.4762047327216838,
    0.4802508659112497, 0.4843202694289116, 0.48841328470771206, 0.49253026364614866,
    0.4966715690547963, 0.5008375751284821, 0.5050286679458288, 0.5092452459981361,
    0.513487720749743, 0.5177565172322006, 0.5220520746747949, 0.5263748471741867,
    0.5307253044061939, 0.5351039323830196, 0.5395112342595446, 0.5439477311926499,
    0.5484139632579211, 0.5529104904285199, 0.5574378936214863, 0.5619967758172779,
    0.5665877632589518, 0.571211506738075, 0.5758686829752105, 0.5805599961036835,
    0.5852861792663003, 0.590047996335792, 0.5948462437709913, 0.5996817526221677,
    0.6045553907005495, 0.6094680649288954, 0.6144207238920768, 0.6194143606090392,
    0.6244500155502742, 0.6295287799281283, 0.63465179929096, 0.639820277456439,
    0.6450354808242519, 0.6502987431142946, 0.6556114705832247, 0.6609751477802414,
    0.6663913439123806, 0.6718617199007664, 0.6773880362225131, 0.6829721616487914,
    0.6886160830085271, 0.6943219161300326, 0.7000919181404901, 0.7059285013367974,
    0.7118342488823585, 0.7178119326349014, 0.7238645334728816, 0.7299952645658024,
    0.7362075981312667, 0.7425052963446362, 0.7488924472237267, 0.7553735065117545,
    0.7619533468415465, 0.7686373158033348, 0.7754313049861383, 0.7823418326598619,
    0.7893761435711986, 0.7965423304282546, 0.8038494831763895, 0.8113078743182199,
    0.8189291916094148, 0.8267268339520942, 0.8347162929929304, 0.8429156531184411,
    0.8513462584651237, 0.8600336212030086, 0.8690086880437932, 0.8783096558161468,
    0.8879846607633999, 0.898095921906304, 0.9087264400605629, 0.9199915050483602,
    0.9320600759689902, 0.945198953453078, 0.9598790918124159, 0.9771017012827313,
    1.0,
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AveragingWindow, SamplingFrequency};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg(f: SamplingFrequency, a: AveragingWindow) -> SensorConfig {
        SensorConfig::new(f, a)
    }

    #[test]
    fn noise_decreases_with_larger_averaging_window() {
        let n = NoiseModel::bmi160();
        let stds: Vec<f64> = AveragingWindow::ALL
            .iter()
            .map(|&a| {
                n.output_noise_std_for(cfg(SamplingFrequency::F25, a), OperationMode::LowPower)
            })
            .collect();
        for pair in stds.windows(2) {
            assert!(pair[0] > pair[1], "noise must shrink as the window grows: {stds:?}");
        }
    }

    #[test]
    fn low_power_mode_is_noisier_than_normal_mode() {
        let n = NoiseModel::bmi160();
        let c = cfg(SamplingFrequency::F25, AveragingWindow::A16);
        assert!(
            n.output_noise_std_for(c, OperationMode::LowPower)
                > n.output_noise_std_for(c, OperationMode::Normal)
        );
    }

    #[test]
    fn noiseless_model_produces_exact_zero() {
        let n = NoiseModel::noiseless();
        let std = n.output_noise_std_for(
            cfg(SamplingFrequency::F50, AveragingWindow::A8),
            OperationMode::LowPower,
        );
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(scaled_gaussian(std, &mut rng), 0.0);
        }
        // Nothing was drawn: the stream is where a fresh one starts.
        assert_eq!(rng.random::<u64>(), StdRng::seed_from_u64(1).random::<u64>());
    }

    #[test]
    fn sampled_noise_matches_requested_std() {
        let n = NoiseModel::bmi160();
        let c = cfg(SamplingFrequency::F12_5, AveragingWindow::A8);
        let target = n.output_noise_std_for(c, OperationMode::LowPower);
        let mut rng = StdRng::seed_from_u64(7);
        let count = 20_000;
        let values: Vec<f64> = (0..count).map(|_| scaled_gaussian(target, &mut rng)).collect();
        let var = values.iter().map(|v| v * v).sum::<f64>() / count as f64;
        assert!((var.sqrt() - target).abs() / target < 0.05);
    }

    #[test]
    fn ziggurat_tables_match_a_recompute_from_r_and_v() {
        // Marsaglia & Tsang's parameters for 256 layers (r as the nearest f64).
        let r = 3.654_152_885_361_009_f64;
        let v = 4.928_673_233_99e-3_f64;
        let f = |x: f64| (-0.5 * x * x).exp();
        let mut x = [0.0; LAYERS + 1];
        x[0] = v / f(r);
        x[1] = r;
        for i in 1..LAYERS - 1 {
            x[i + 1] = (-2.0 * (v / x[i] + f(x[i])).ln()).sqrt();
        }
        // Agreement to a few ulps, not bit equality: the committed tables are
        // the reference, and another libm may round `exp`/`ln` differently.
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-13 * a.abs().max(b.abs());
        assert_eq!(X[1], r);
        assert_eq!(X[LAYERS], 0.0);
        assert_eq!(F[LAYERS], 1.0);
        for i in 0..=LAYERS {
            assert!(close(X[i], x[i]), "X[{i}] = {} but recomputes to {}", X[i], x[i]);
            assert!(close(F[i], f(x[i])), "F[{i}] = {} but recomputes to {}", F[i], f(x[i]));
        }
        // Every layer has area v: the base strip by construction, each
        // rectangle to the recurrence's rounding, and the top one closes at 0.
        assert!(close(X[0] * F[1], v));
        for i in 1..LAYERS {
            assert!(X[i] > X[i + 1]);
            let area = X[i] * (F[i + 1] - F[i]);
            assert!((area - v).abs() < 1e-8 * v, "layer {i} has area {area}, not {v}");
        }
    }

    #[test]
    fn gaussian_stream_is_pinned() {
        // The first draws from a fixed seed.  Any change to the sampler or its
        // tables moves every synthetic sample in the workspace; this test makes
        // such a change visible.
        let mut rng = StdRng::seed_from_u64(1);
        let drawn: Vec<f64> = (0..16).map(|_| gaussian(&mut rng)).collect();
        let pinned = [
            1.0991219651908033,
            1.0817251720041314,
            -0.23993583808086105,
            0.6856973270140991,
            -0.23889774351106333,
            -1.1692420170329887,
            -2.9880946310273035,
            -0.09374698220546994,
            0.34500548714736035,
            1.7902474129638741,
            -0.40880933251587415,
            0.06655738810246878,
            0.7675050683344193,
            0.10204124779346896,
            0.17712691300555608,
            -0.7282448824710023,
        ];
        assert_eq!(drawn, pinned);
    }
}
