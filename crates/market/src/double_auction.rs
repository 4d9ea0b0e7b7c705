//! A GridEcon-style uniform-price double auction for resource slots.
//!
//! Facilities place *asks* (quantity of location-slots at a reserve price
//! per slot); experimenters place *orders* (quantity demanded at a limit
//! price per slot). Clearing finds the largest quantity `q` where the
//! q-th cheapest supply unit still costs no more than the q-th most
//! generous demand unit; everyone trades at one uniform price (midpoint
//! of the crossing pair — the standard k = ½ double-auction rule).
//!
//! The mechanism is deliberately diversity-blind: slots are fungible, so
//! a facility is paid for *how much* it sells, never for *where* its
//! slots are — the paper's §5 point about markets ignoring
//! complementarities, in executable form.

use serde::{Deserialize, Serialize};

/// A supply offer: `quantity` slots at `reserve` per slot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Ask {
    /// Slots offered.
    pub quantity: u64,
    /// Minimum acceptable price per slot.
    pub reserve: f64,
}

/// A demand order: `quantity` slots at up to `limit` per slot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Order {
    /// Slots demanded.
    pub quantity: u64,
    /// Maximum acceptable price per slot.
    pub limit: f64,
}

/// Cleared-market outcome.
#[derive(Debug, Clone)]
pub struct MarketOutcome {
    /// Uniform clearing price per slot (0 when no trade).
    pub price: f64,
    /// Slots traded.
    pub traded: u64,
    /// Slots sold by each ask (aligned with the input asks).
    pub sold: Vec<u64>,
    /// Revenue of each ask (`price × sold`).
    pub revenue: Vec<f64>,
}

impl MarketOutcome {
    /// Normalized revenue shares across asks (zeros when no trade).
    pub fn revenue_shares(&self) -> Vec<f64> {
        let total: f64 = self.revenue.iter().sum();
        fedval_coalition::normalize(self.revenue.clone(), total)
    }
}

/// Clears the double auction.
///
/// Supply units are served cheapest-reserve first (pro-rata within equal
/// reserves); demand units are served highest-limit first.
pub fn clear_double_auction(asks: &[Ask], orders: &[Order]) -> MarketOutcome {
    // Expand both books into sorted unit curves. Quantities can be large,
    // so work with (price, quantity) segments instead of unit vectors.
    let mut supply: Vec<(f64, u64, usize)> = asks
        .iter()
        .enumerate()
        .filter(|(_, a)| a.quantity > 0)
        .map(|(i, a)| (a.reserve, a.quantity, i))
        .collect();
    supply.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut demand: Vec<(f64, u64)> = orders
        .iter()
        .filter(|o| o.quantity > 0)
        .map(|o| (o.limit, o.quantity))
        .collect();
    demand.sort_by(|x, y| y.0.total_cmp(&x.0));

    // March the two curves to find the crossing quantity.
    let mut traded = 0u64;
    let mut si = 0usize;
    let mut s_left = supply.first().map_or(0, |s| s.1);
    let mut di = 0usize;
    let mut d_left = demand.first().map_or(0, |d| d.1);
    let mut last_ask = 0.0f64;
    let mut last_bid = 0.0f64;
    while si < supply.len() && di < demand.len() {
        let ask_price = supply[si].0;
        let bid_price = demand[di].0;
        if ask_price > bid_price {
            break;
        }
        let step = s_left.min(d_left);
        traded += step;
        last_ask = ask_price;
        last_bid = bid_price;
        s_left -= step;
        d_left -= step;
        if s_left == 0 {
            si += 1;
            s_left = supply.get(si).map_or(0, |s| s.1);
        }
        if d_left == 0 {
            di += 1;
            d_left = demand.get(di).map_or(0, |d| d.1);
        }
    }

    if traded == 0 {
        return MarketOutcome {
            price: 0.0,
            traded: 0,
            sold: vec![0; asks.len()],
            revenue: vec![0.0; asks.len()],
        };
    }
    let price = 0.5 * (last_ask + last_bid);

    // Fill supply cheapest-first up to `traded`.
    let mut sold = vec![0u64; asks.len()];
    let mut remaining = traded;
    for &(_, quantity, idx) in &supply {
        if remaining == 0 {
            break;
        }
        let take = quantity.min(remaining);
        sold[idx] += take;
        remaining -= take;
    }
    let revenue: Vec<f64> = sold.iter().map(|&q| q as f64 * price).collect();
    MarketOutcome {
        price,
        traded,
        sold,
        revenue,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn textbook_crossing() {
        // Supply: 10 @ 1, 10 @ 3. Demand: 12 @ 5, 10 @ 2.
        // Units 1..=10 trade (1 vs 5); units 11,12 trade (3 vs 5);
        // units 13.. would pair ask 3 with bid 2 → stop. q = 12.
        let asks = [
            Ask {
                quantity: 10,
                reserve: 1.0,
            },
            Ask {
                quantity: 10,
                reserve: 3.0,
            },
        ];
        let orders = [
            Order {
                quantity: 12,
                limit: 5.0,
            },
            Order {
                quantity: 10,
                limit: 2.0,
            },
        ];
        let out = clear_double_auction(&asks, &orders);
        assert_eq!(out.traded, 12);
        assert!((out.price - 4.0).abs() < 1e-12); // midpoint of (3, 5)
        assert_eq!(out.sold, vec![10, 2]);
        assert!((out.revenue[0] - 40.0).abs() < 1e-12);
    }

    #[test]
    fn no_trade_when_reserves_exceed_limits() {
        let asks = [Ask {
            quantity: 5,
            reserve: 10.0,
        }];
        let orders = [Order {
            quantity: 5,
            limit: 1.0,
        }];
        let out = clear_double_auction(&asks, &orders);
        assert_eq!(out.traded, 0);
        assert_eq!(out.price, 0.0);
        assert_eq!(out.revenue_shares(), vec![0.0]);
    }

    #[test]
    fn zero_reserves_pay_by_capacity() {
        // The paper's π̂-tracking property: free supply, ample demand ⇒
        // revenue shares equal capacity shares.
        let asks = [
            Ask {
                quantity: 100,
                reserve: 0.0,
            },
            Ask {
                quantity: 400,
                reserve: 0.0,
            },
            Ask {
                quantity: 800,
                reserve: 0.0,
            },
        ];
        let orders = [Order {
            quantity: 2000,
            limit: 1.0,
        }];
        let out = clear_double_auction(&asks, &orders);
        assert_eq!(out.traded, 1300);
        let shares = out.revenue_shares();
        assert!((shares[0] - 100.0 / 1300.0).abs() < 1e-9);
        assert!((shares[1] - 400.0 / 1300.0).abs() < 1e-9);
        assert!((shares[2] - 800.0 / 1300.0).abs() < 1e-9);
    }

    #[test]
    fn cheapest_supply_fills_first() {
        let asks = [
            Ask {
                quantity: 6,
                reserve: 2.0,
            },
            Ask {
                quantity: 6,
                reserve: 1.0,
            },
        ];
        let orders = [Order {
            quantity: 6,
            limit: 3.0,
        }];
        let out = clear_double_auction(&asks, &orders);
        assert_eq!(out.traded, 6);
        assert_eq!(out.sold, vec![0, 6], "the cheap ask wins it all");
    }

    #[test]
    fn partial_fill_of_marginal_ask() {
        let asks = [Ask {
            quantity: 10,
            reserve: 1.0,
        }];
        let orders = [Order {
            quantity: 4,
            limit: 2.0,
        }];
        let out = clear_double_auction(&asks, &orders);
        assert_eq!(out.traded, 4);
        assert_eq!(out.sold, vec![4]);
        assert!((out.price - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_books() {
        let out = clear_double_auction(&[], &[]);
        assert_eq!(out.traded, 0);
        assert!(out.sold.is_empty());
    }
}
