//! Median, percentile and quartile arithmetic on known samples.

use gca_benchmark::stats::{geomean, median, percentile, quartiles, spread};

#[test]
fn median_of_odd_even_and_empty_samples() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.0]), 7.0);
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<f64> = (1..=200).map(f64::from).collect();
    // 95% of 200 samples lie at or below the 190th; ten lie beyond it.
    assert_eq!(percentile(&v, 95.0), 190.0);
    assert_eq!(percentile(&v, 50.0), 100.0);
    assert_eq!(percentile(&v, 100.0), 200.0);
    assert_eq!(percentile(&[5.0], 95.0), 5.0);
    assert_eq!(percentile(&[], 95.0), 0.0);
    // Order of the input does not matter.
    assert_eq!(percentile(&[9.0, 1.0, 5.0, 3.0, 7.0], 50.0), 5.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
    // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
    assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), [1.25, 2.5, 3.75]);
    // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
    assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
    assert_eq!(quartiles(&[6.0]), [6.0; 3]);
}

#[test]
fn spread_is_interquartile_distance_over_median() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert!((spread(&ten) - 1.0).abs() < 1e-12);
    assert_eq!(spread(&[5.0, 5.0, 5.0, 5.0]), 0.0);
    assert_eq!(spread(&[0.0, 0.0]), 0.0);
}

#[test]
fn geomean_of_ratios() {
    assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    assert_eq!(geomean(&[]), 0.0);
}
